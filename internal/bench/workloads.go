package bench

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/workload"
)

// Bundle is one benchmark workload: a federation plus its query variants,
// bound against its global schema. Variant 0 is the hot query under Zipfian
// skew.
type Bundle struct {
	Name      string
	Global    *schema.Global
	Databases map[object.SiteID]*store.Database
	Tables    *gmap.Tables
	Bounds    []*query.Bound
}

// schoolVariantTexts are the query variants over the paper's school
// federation: Q1 plus progressively narrower relatives, so Zipfian skew has
// distinct shapes to concentrate on.
var schoolVariantTexts = []string{
	school.Q1,
	`select name from Student where age < 30 and address.city = "Taipei"`,
	`select name, advisor.name from Student where advisor.speciality = "database"`,
	`select name from Student where advisor.department.name = "CS" and sex = "F"`,
	`select name, address.city from Student where address.city = "Taipei"`,
}

// BuildBundle constructs a named workload. Supported names:
//
//   - "school": the paper's running example federation with the Q1 family
//     of query variants (scale/seed are ignored — the fixture is fixed).
//   - "table2": a federation drawn from the paper's Table 2 ranges with
//     range predicates; variants sweep the root predicate's literal, so
//     variants differ in selectivity.
//
// scale multiplies the Table 2 extent sizes (0 or 1 = paper scale; use
// ~0.01 for smoke runs). The same name/variants/scale/seed always builds an
// identical bundle, so every cell of a matrix queries the same federation.
func BuildBundle(name string, variants int, scale float64, seed int64) (*Bundle, error) {
	if variants < 1 {
		variants = 1
	}
	switch name {
	case "school":
		return schoolBundle(variants)
	case "table2":
		return table2Bundle(variants, scale, seed)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (want school or table2)", name)
	}
}

func schoolBundle(variants int) (*Bundle, error) {
	fx := school.New()
	b := &Bundle{
		Name:      "school",
		Global:    fx.Global,
		Databases: fx.Databases,
		Tables:    fx.Mapping,
	}
	for v := 0; v < variants; v++ {
		text := schoolVariantTexts[v%len(schoolVariantTexts)]
		q, err := query.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("bench: school variant %d: %w", v, err)
		}
		bound, err := query.Bind(q, fx.Global)
		if err != nil {
			return nil, fmt.Errorf("bench: school variant %d: %w", v, err)
		}
		b.Bounds = append(b.Bounds, bound)
	}
	return b, nil
}

func table2Bundle(variants int, scale float64, seed int64) (*Bundle, error) {
	if scale <= 0 {
		scale = 1
	}
	w, err := drawTable2(workload.DefaultRanges(), scale, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("bench: generate table2: %w", err)
	}
	b := &Bundle{
		Name:      "table2",
		Global:    w.Global,
		Databases: w.Databases,
		Tables:    w.Tables,
	}
	for v := 0; v < variants; v++ {
		bound, err := query.Bind(variantQuery(w.Query, v, variants), w.Global)
		if err != nil {
			return nil, fmt.Errorf("bench: table2 variant %d: %w", v, err)
		}
		b.Bounds = append(b.Bounds, bound)
	}
	return b, nil
}

// drawTable2 draws one federation from the Table 2 ranges with the extents
// at scale: the one place a benchmark generates a workload or scales an
// extent. Parameters and data come off one stream, so a seed fixes both.
func drawTable2(ranges workload.Ranges, scale float64, rng *rand.Rand) (*workload.Workload, error) {
	ranges.NObjects[0] = scaled(ranges.NObjects[0], scale)
	ranges.NObjects[1] = scaled(ranges.NObjects[1], scale)
	return workload.Generate(ranges.Draw(rng), rng)
}

// scaled shrinks a Table 2 extent bound, clamped so even tiny smoke scales
// keep a real extent.
func scaled(n int, scale float64) int {
	v := int(math.Round(float64(n) * scale))
	if v < 20 {
		v = 20
	}
	return v
}

// variantQuery derives variant v of a generated query by perturbing its
// first predicate's literal, which sweeps the literal (and with it the
// selectivity) across variants. Variant 0 is the generated query itself.
func variantQuery(base *query.Query, v, variants int) *query.Query {
	q := &query.Query{
		Range:   base.Range,
		Targets: base.Targets,
		Preds:   append([]query.Predicate(nil), base.Preds...),
		Groups:  base.Groups,
	}
	if v == 0 || len(q.Preds) == 0 {
		return q
	}
	p := q.Preds[0]
	if p.Literal.Kind() == object.KindInt {
		p.Literal = object.Int(max(p.Literal.Int64()*int64(variants-v)/int64(variants), 1))
		q.Preds[0] = p
	}
	return q
}
