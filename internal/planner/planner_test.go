package planner

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/workload"
)

func schoolCatalog(t *testing.T) (*school.Fixture, *Catalog, *query.Bound) {
	t.Helper()
	fx := school.New()
	cat := BuildCatalog(fx.Global, fx.Databases, fx.Mapping)
	b := query.MustBind(query.MustParse(school.Q1), fx.Global)
	return fx, cat, b
}

func TestBuildCatalogSchool(t *testing.T) {
	_, cat, _ := schoolCatalog(t)

	st := cat.Extents[schema.Constituent{Site: "DB1", Class: "Student"}]
	if st.Objects != 3 {
		t.Errorf("Student@DB1 objects = %d", st.Objects)
	}
	age := st.Attrs["age"]
	if !age.Numeric || age.Min != 24 || age.Max != 31 || age.NonNull != 3 || age.Distinct != 3 {
		t.Errorf("age stats = %+v", age)
	}
	// s1's sex is null: 2 of 3 students have it.
	if got := st.NullFraction("sex"); got < 0.3 || got > 0.34 {
		t.Errorf("sex null fraction = %g", got)
	}
	// address is a missing attribute at DB1: fraction 1.
	if got := st.NullFraction("address"); got != 1 {
		t.Errorf("address null fraction = %g", got)
	}

	teacher := cat.Classes["Teacher"]
	if teacher.Entities != 4 || teacher.IsomericRatio != 0.75 {
		t.Errorf("Teacher stats = %+v", teacher)
	}
	if teacher.AvgCopies != 1.75 {
		t.Errorf("Teacher AvgCopies = %g", teacher.AvgCopies)
	}
}

func TestSelectivityEstimates(t *testing.T) {
	fx, cat, _ := schoolCatalog(t)
	e := estimator{cat: cat}

	// age < 30 on DB1's students: range [24,31], (30-24)/(31-24) ≈ 0.857.
	b := query.MustBind(query.MustParse(`select name from Student where age < 30`), fx.Global)
	sel := e.selectivity(b.Preds[0], "DB1")
	if sel < 0.8 || sel > 0.9 {
		t.Errorf("selectivity(age<30) = %g", sel)
	}
	// age > 30.
	b2 := query.MustBind(query.MustParse(`select name from Student where age > 30`), fx.Global)
	if s := e.selectivity(b2.Preds[0], "DB1"); s < 0.1 || s > 0.2 {
		t.Errorf("selectivity(age>30) = %g", s)
	}
	// Equality: 1/distinct.
	b3 := query.MustBind(query.MustParse(`select name from Student where name = "John"`), fx.Global)
	if s := e.selectivity(b3.Preds[0], "DB1"); s < 0.3 || s > 0.34 {
		t.Errorf("selectivity(name=John) = %g", s)
	}
	// No stats (missing attribute): fallback.
	b4 := query.MustBind(query.MustParse(`select name from Student where address.city = "x"`), fx.Global)
	if s := e.selectivity(b4.Preds[0], "DB1"); s != 1.0/3 {
		t.Errorf("fallback selectivity = %g", s)
	}
}

func TestUnknownProb(t *testing.T) {
	_, cat, b := schoolCatalog(t)
	e := estimator{cat: cat, b: b}

	// address.city at DB1: missing attribute → 1.
	if u := e.unknownProb(b.Preds[0], "DB1"); u != 1 {
		t.Errorf("unknown(address.city@DB1) = %g", u)
	}
	// address.city at DB2: held, no nulls → 0.
	if u := e.unknownProb(b.Preds[0], "DB2"); u != 0 {
		t.Errorf("unknown(address.city@DB2) = %g", u)
	}
	// advisor.department.name at DB1: t2's null department → 1/3.
	if u := e.unknownProb(b.Preds[2], "DB1"); u < 0.3 || u > 0.35 {
		t.Errorf("unknown(department@DB1) = %g", u)
	}
}

func TestItemClassOf(t *testing.T) {
	_, cat, b := schoolCatalog(t)
	e := estimator{cat: cat, b: b}
	if got := e.itemClassOf(b.Preds[0], "DB1"); got != "Student" {
		t.Errorf("item class = %s", got)
	}
	if got := e.itemClassOf(b.Preds[1], "DB1"); got != "Teacher" {
		t.Errorf("item class = %s", got)
	}
	if got := e.itemClassOf(b.Preds[2], "DB2"); got != "Teacher" {
		t.Errorf("item class = %s", got)
	}
}

func TestEstimatesOrderingOnSchool(t *testing.T) {
	sel, b := schoolSelector(t, nil)
	ests := sel.Estimate(b)
	if len(ests) != 3 || ests[0].Alg != exec.CA || ests[1].Alg != exec.BL || ests[2].Alg != exec.PL {
		t.Fatalf("estimates = %+v", ests)
	}
	for _, est := range ests {
		if est.TotalMicros <= 0 || est.ResponseMicros <= 0 {
			t.Errorf("%v: non-positive estimate %+v", est.Alg, est)
		}
		if est.ResponseMicros > est.TotalMicros {
			t.Errorf("%v: response exceeds total: %+v", est.Alg, est)
		}
	}
}

// TestChooseMatchesSimulation validates the planner against ground truth:
// across randomized federations, the chosen strategy's *actual* simulated
// response time must be close to the actual best — the planner may
// occasionally miss the winner, but never catastrophically.
func TestChooseMatchesSimulation(t *testing.T) {
	ranges := workload.DefaultRanges()
	ranges.NObjects = [2]int{150, 250}

	wins, total := 0, 0
	for seed := int64(500); seed < 515; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, err := workload.Generate(ranges.Draw(rng), rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		engine, err := exec.New(exec.Config{
			Global: w.Global, Coordinator: "G", Databases: w.Databases, Tables: w.Tables,
		})
		if err != nil {
			t.Fatal(err)
		}

		actual := map[exec.Algorithm]float64{}
		best := exec.Algorithm(0)
		for _, alg := range exec.Algorithms() {
			_, m, err := engine.Run(fabric.NewSim(fabric.DefaultRates(), engine.Sites()), alg, w.Bound)
			if err != nil {
				t.Fatal(err)
			}
			actual[alg] = m.ResponseMicros
			if best == 0 || m.ResponseMicros < actual[best] {
				best = alg
			}
		}

		cat := BuildCatalog(w.Global, w.Databases, w.Tables)
		chosen := NewSelector(cat, "G", nil).Select(w.Bound)
		total++
		if chosen == best {
			wins++
		}
		if actual[chosen] > 2.5*actual[best] {
			t.Errorf("seed %d: chose %v (%.0f µs), %.1f× worse than best %v (%.0f µs)",
				seed, chosen, actual[chosen], actual[chosen]/actual[best], best, actual[best])
		}
	}
	if wins*2 < total {
		t.Errorf("planner picked the actual winner only %d/%d times", wins, total)
	}
}

func TestExtentStatsHelpers(t *testing.T) {
	var empty ExtentStats
	if empty.AvgObjectBytes() != 0 || empty.NullFraction("x") != 0 {
		t.Error("empty extent helpers wrong")
	}
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.5) != 0.5 {
		t.Error("clamp01 wrong")
	}
}

// TestEstimatesDisjunctiveQuery: the estimator treats disjunctive queries
// conservatively (its selectivity model is conjunctive) but must produce
// sane positive estimates for them.
func TestEstimatesDisjunctiveQuery(t *testing.T) {
	fx, cat, _ := schoolCatalog(t)
	b := query.MustBind(query.MustParse(
		`select name from Student where age < 25 or advisor.speciality = "database"`), fx.Global)
	for _, est := range NewSelector(cat, "G", nil).Estimate(b) {
		if est.TotalMicros <= 0 || est.ResponseMicros <= 0 {
			t.Errorf("%v: estimate %+v", est.Alg, est)
		}
		if est.ResponseMicros > est.TotalMicros {
			t.Errorf("%v: response > total", est.Alg)
		}
	}
}

// TestChooseDeterministic: the same catalog and query always pick the same
// strategy, whether one never-fed selector chooses repeatedly or a fresh
// one chooses each time.
func TestChooseDeterministic(t *testing.T) {
	_, cat, b := schoolCatalog(t)
	sel := NewSelector(cat, "G", nil)
	first := sel.Select(b)
	for i := 0; i < 5; i++ {
		if got, fresh := sel.Select(b), NewSelector(cat, "G", nil).Select(b); got != first || fresh != first {
			t.Fatalf("nondeterministic choice: %v, %v vs %v", got, fresh, first)
		}
	}
}

// TestFreshSelectorIsTable1Planner: a selector that has observed nothing is
// the static Table 1 planner. It charges every site, the coordinator
// included, Table 1's rates, and it picks the lowest (response, total), the
// earlier of CA/BL/PL on a tie — the rule the static planner's stable sort
// applied before PR 25. Checked on the school fixture and on Table 2 draws
// from the generator the figures topic's planner sweep (E9) draws from.
func TestFreshSelectorIsTable1Planner(t *testing.T) {
	check := func(name string, cat *Catalog, b *query.Bound) {
		t.Helper()
		sel := NewSelector(cat, "G", nil)
		for _, site := range append(b.InvolvedSites(), "G") {
			if got := sel.cal.siteRates(site); got != fabric.DefaultRates() {
				t.Errorf("%s: %s priced at %+v, want Table 1's", name, site, got)
			}
		}
		ests := sel.Estimate(b)
		want := ests[0]
		for _, est := range ests[1:] {
			if est.ResponseMicros < want.ResponseMicros ||
				(est.ResponseMicros == want.ResponseMicros && est.TotalMicros < want.TotalMicros) {
				want = est
			}
		}
		if got := sel.Select(b); got != want.Alg {
			t.Errorf("%s: fresh selector chose %v, the Table 1 rule %v (estimates %+v)", name, got, want.Alg, ests)
		}
		for _, r := range ests[0].Details.Rows() {
			if r.Site == "coord" {
				t.Errorf("%s: coordinator work filed under a placeholder: %+v", name, r)
			}
		}
		if ests[0].Details.Get("G", "I") <= 0 {
			t.Errorf("%s: no coordinator integration row under G: %+v", name, ests[0].Details.Rows())
		}
	}
	_, cat, b := schoolCatalog(t)
	check("school", cat, b)

	ranges := workload.DefaultRanges()
	ranges.NObjects = [2]int{50, 60}
	for s := int64(0); s < 24; s++ {
		rng := rand.New(rand.NewSource(42 + s*1_000_003))
		w, err := workload.Generate(ranges.Draw(rng), rng)
		if err != nil {
			t.Fatalf("draw %d: %v", s, err)
		}
		check(fmt.Sprintf("draw %d", s), BuildCatalog(w.Global, w.Databases, w.Tables), w.Bound)
	}
}
