package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
)

// smallRanges keeps generated federations small enough for fast tests.
func smallRanges() Ranges {
	r := DefaultRanges()
	r.NObjects = [2]int{30, 40}
	return r
}

func TestDrawWithinRanges(t *testing.T) {
	r := DefaultRanges()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p := r.Draw(rng)
		if p.NDB != 3 {
			t.Fatalf("NDB = %d", p.NDB)
		}
		if len(p.Classes) < 1 || len(p.Classes) > 4 {
			t.Fatalf("NClasses = %d", len(p.Classes))
		}
		total := 0
		for _, cp := range p.Classes {
			if cp.NPreds < 0 || cp.NPreds > 3 {
				t.Fatalf("NPreds = %d", cp.NPreds)
			}
			total += cp.NPreds
			for i := 0; i < p.NDB; i++ {
				if cp.NObjects[i] < 5000 || cp.NObjects[i] > 6000 {
					t.Fatalf("NObjects = %d", cp.NObjects[i])
				}
				if cp.NullRatio[i] < 0 || cp.NullRatio[i] > 0.2 {
					t.Fatalf("NullRatio = %g", cp.NullRatio[i])
				}
				if len(cp.HeldPreds[i]) > cp.NPreds {
					t.Fatalf("HeldPreds = %v with NPreds = %d", cp.HeldPreds[i], cp.NPreds)
				}
			}
		}
		if total == 0 {
			t.Fatal("drew a query with no predicates")
		}
	}
}

func TestDrawDeterministic(t *testing.T) {
	r := DefaultRanges()
	p1 := r.Draw(rand.New(rand.NewSource(7)))
	p2 := r.Draw(rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(p1, p2) {
		t.Error("Draw is nondeterministic for a fixed seed")
	}
}

func generate(t *testing.T, seed int64) *Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := smallRanges().Draw(rng)
	w, err := Generate(p, rng)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := generate(t, 11)
	w2 := generate(t, 11)
	if w1.Query.String() != w2.Query.String() {
		t.Error("queries differ across identical seeds")
	}
	if !reflect.DeepEqual(w1.Stats, w2.Stats) {
		t.Errorf("stats differ: %+v vs %+v", w1.Stats, w2.Stats)
	}
	for site, db1 := range w1.Databases {
		db2 := w2.Databases[site]
		if db1.Len() != db2.Len() {
			t.Errorf("site %s: %d vs %d objects", site, db1.Len(), db2.Len())
		}
	}
}

func TestGenerateConsistency(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		w := generate(t, seed)
		for site, db := range w.Databases {
			if err := db.CheckRefs(); err != nil {
				t.Errorf("seed %d site %s: %v", seed, site, err)
			}
		}
		if err := isomer.Validate(w.Global, w.Databases, w.Tables); err != nil {
			t.Errorf("seed %d: mapping tables invalid: %v", seed, err)
		}
	}
}

// TestGenerateIsomericConsistentValues verifies the core soundness
// precondition: isomeric objects never contradict each other — attributes
// stored at several sites have equal values.
func TestGenerateIsomericConsistentValues(t *testing.T) {
	w := generate(t, 3)
	for _, class := range w.Tables.Classes() {
		table := w.Tables.Table(class)
		for _, goid := range table.GOids() {
			locs := table.Locations(goid)
			if len(locs) < 2 {
				continue
			}
			base, _ := w.Databases[locs[0].Site].Deref(locs[0].LOid)
			for _, loc := range locs[1:] {
				o, _ := w.Databases[loc.Site].Deref(loc.LOid)
				for _, name := range o.AttrNames() {
					v := o.Attr(name)
					bv := base.Attr(name)
					if bv.IsNull() {
						continue
					}
					if v.Kind() == object.KindRef {
						// References at different sites use the same
						// entity-derived LOid by construction.
						if v.RefLOid() != bv.RefLOid() {
							t.Fatalf("%s: ref mismatch %v vs %v", goid, v, bv)
						}
						continue
					}
					if !v.Equal(bv) {
						t.Fatalf("%s.%s: %v at %s vs %v at %s",
							goid, name, v, loc.Site, bv, locs[0].Site)
					}
				}
			}
		}
	}
}

// TestIsomerismRatio checks the placement model approximates the paper's
// R_iso = 1 − 0.9^(N_db−1) for the root class.
func TestIsomerismRatio(t *testing.T) {
	r := smallRanges()
	r.NObjects = [2]int{400, 400}
	r.NClasses = [2]int{1, 1}
	rng := rand.New(rand.NewSource(5))
	p := r.Draw(rng)
	w, err := Generate(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(w.Stats.IsomericEntities) / float64(w.Stats.Entities[0])
	want := 1 - math.Pow(0.9, float64(p.NDB-1))
	if math.Abs(got-want) > 0.05 {
		t.Errorf("isomerism ratio = %.3f, want about %.3f", got, want)
	}
}

// TestSelectivityControl checks that predicate literals hit the requested
// selectivity on the generated value distribution.
func TestSelectivityControl(t *testing.T) {
	r := smallRanges()
	r.NObjects = [2]int{500, 500}
	r.NClasses = [2]int{1, 1}
	r.NPredsPerClass = [2]int{1, 1}
	r.Selectivity = 0.3
	r.NullRatio = [2]float64{0, 0}
	rng := rand.New(rand.NewSource(9))
	p := r.Draw(rng)
	// Force the predicate attribute to be held everywhere so selectivity
	// is observable.
	for i := range p.Classes[0].HeldPreds {
		p.Classes[0].HeldPreds[i] = []int{0}
	}
	w, err := Generate(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	matched, total := 0, 0
	for _, db := range w.Databases {
		db.Extent("C1").Scan(func(o *object.Object) bool {
			total++
			if v := o.Attr("p0"); !v.IsNull() && v.Int64() < 300 {
				matched++
			}
			return true
		})
	}
	got := float64(matched) / float64(total)
	if math.Abs(got-0.3) > 0.05 {
		t.Errorf("observed selectivity %.3f, want about 0.3", got)
	}
}

func TestGenerateMissingAttributesMatchParams(t *testing.T) {
	w := generate(t, 21)
	for k := 0; k < len(w.Global.ClassNames()); k++ {
		class := fmt.Sprintf("C%d", k+1)
		gc := w.Global.Class(class)
		for site := range w.Databases {
			for _, miss := range gc.MissingAttrs(site) {
				// Only predicate attributes may be missing.
				if miss[0] != 'p' {
					t.Errorf("%s@%s: unexpected missing attribute %q", class, site, miss)
				}
			}
		}
	}
}

func TestGenerateQueryBinds(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		w := generate(t, seed)
		if w.Bound == nil || w.Bound.Query.Range != "C1" {
			t.Fatalf("seed %d: bad bound query", seed)
		}
		if w.Stats.Preds != len(w.Bound.Preds) {
			t.Errorf("seed %d: stats preds %d vs bound %d", seed, w.Stats.Preds, len(w.Bound.Preds))
		}
		if w.Stats.Objects == 0 {
			t.Errorf("seed %d: no objects", seed)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Params{NDB: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("NDB=0 accepted")
	}
	if _, err := Generate(Params{NDB: 2}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("no classes accepted")
	}
}

func TestGenerateSingleDatabase(t *testing.T) {
	r := smallRanges()
	r.NDB = 1
	rng := rand.New(rand.NewSource(2))
	p := r.Draw(rng)
	w, err := Generate(p, rng)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if w.Stats.IsomericEntities != 0 {
		t.Error("single database cannot have isomeric entities")
	}
}

func TestEqualityPredsSelectivity(t *testing.T) {
	r := smallRanges()
	r.NObjects = [2]int{500, 500}
	r.NClasses = [2]int{1, 1}
	r.NPredsPerClass = [2]int{1, 1}
	r.EqualityPreds = true
	r.Selectivity = 0.2
	r.NullRatio = [2]float64{0, 0}
	rng := rand.New(rand.NewSource(4))
	p := r.Draw(rng)
	for i := range p.Classes[0].HeldPreds {
		p.Classes[0].HeldPreds[i] = []int{0}
	}
	w, err := Generate(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if w.Query.Preds[0].Op != query.OpEq {
		t.Fatalf("op = %v", w.Query.Preds[0].Op)
	}
	matched, total := 0, 0
	for _, db := range w.Databases {
		db.Extent("C1").Scan(func(o *object.Object) bool {
			total++
			if v := o.Attr("p0"); !v.IsNull() && v.Int64() == 0 {
				matched++
			}
			return true
		})
	}
	got := float64(matched) / float64(total)
	if math.Abs(got-0.2) > 0.06 {
		t.Errorf("equality selectivity = %.3f, want about 0.2", got)
	}
}

func TestDisjunctiveGroups(t *testing.T) {
	r := smallRanges()
	r.Disjunctive = true
	r.NClasses = [2]int{2, 2}
	r.NPredsPerClass = [2]int{2, 2}
	rng := rand.New(rand.NewSource(6))
	w, err := Generate(r.Draw(rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	groups := w.Query.GroupIdx()
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	// Every predicate appears in exactly one group.
	seen := map[int]bool{}
	for _, g := range groups {
		for _, i := range g {
			if seen[i] {
				t.Fatalf("predicate %d in two groups", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(w.Query.Preds) {
		t.Errorf("groups cover %d of %d predicates", len(seen), len(w.Query.Preds))
	}
}

func TestSinglePredicateStaysConjunctive(t *testing.T) {
	r := smallRanges()
	r.Disjunctive = true
	r.NClasses = [2]int{1, 1}
	r.NPredsPerClass = [2]int{1, 1}
	rng := rand.New(rand.NewSource(8))
	w, err := Generate(r.Draw(rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	if w.Query.Groups != nil {
		t.Errorf("single-predicate query got groups %v", w.Query.Groups)
	}
}
