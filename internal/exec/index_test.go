package exec

import (
	"math/rand"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/workload"
)

// indexWorkload generates a workload, without indexes: a site probes an
// index its extent has, so a test runs scan-based first and calls
// buildIndexes before the index-assisted run.
func indexWorkload(t *testing.T, seed int64, mutate func(*workload.Ranges)) *workload.Workload {
	t.Helper()
	r := smallRanges()
	if mutate != nil {
		mutate(&r)
	}
	rng := rand.New(rand.NewSource(seed))
	w, err := workload.Generate(r.Draw(rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// buildIndexes builds secondary indexes on every held predicate attribute of
// the root class.
func buildIndexes(t *testing.T, w *workload.Workload) {
	t.Helper()
	for _, db := range w.Databases {
		cls := db.Schema().Class("C1")
		for _, a := range cls.Attrs {
			if !a.IsComplex() && !a.MultiValued && a.Name[0] == 'p' {
				if _, err := db.CreateIndex("C1", a.Name); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func runIndexed(t *testing.T, w *workload.Workload, alg Algorithm) (*federation.Answer, fabric.Metrics) {
	t.Helper()
	e, err := New(Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
		Signatures:  signature.Build(w.Databases),
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, m, err := e.Run(fabric.NewReal(fabric.DefaultRates()), alg, w.Bound)
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return ans, m
}

// TestIndexedEvaluationPreservesAnswers: index-assisted BL returns exactly
// the answers of scan-based BL across random workloads (and so do the
// other strategies, which the index path does not touch).
func TestIndexedEvaluationPreservesAnswers(t *testing.T) {
	for seed := int64(800); seed < 815; seed++ {
		w := indexWorkload(t, seed, nil)
		plain := make(map[Algorithm]string)
		for _, alg := range Algorithms() {
			ans, _ := runIndexed(t, w, alg)
			plain[alg] = answerSummary(ans)
		}
		buildIndexes(t, w)
		for _, alg := range Algorithms() {
			indexed, _ := runIndexed(t, w, alg)
			if plain[alg] != answerSummary(indexed) {
				t.Errorf("seed %d %v: indexed answer differs:\n plain:   %s\n indexed: %s",
					seed, alg, plain[alg], answerSummary(indexed))
			}
		}
	}
}

// TestIndexedEvaluationCutsDisk: at selective predicates the index probe
// reads far fewer bytes than the extent scan.
func TestIndexedEvaluationCutsDisk(t *testing.T) {
	w := indexWorkload(t, 900, func(r *workload.Ranges) {
		r.Selectivity = 0.05
		r.NClasses = [2]int{1, 1}
		r.NPredsPerClass = [2]int{2, 2}
		r.NObjects = [2]int{400, 500}
		r.NullRatio = [2]float64{0, 0.05}
	})
	_, plain := runIndexed(t, w, BL)
	buildIndexes(t, w)
	_, indexed := runIndexed(t, w, BL)
	if indexed.DiskBytes >= plain.DiskBytes {
		t.Errorf("indexed disk %d >= plain disk %d", indexed.DiskBytes, plain.DiskBytes)
	}
	// At 5 % selectivity the scan should cost several times the probe.
	if ratio := float64(plain.DiskBytes) / float64(indexed.DiskBytes); ratio < 2 {
		t.Errorf("index saved only %.1f× disk", ratio)
	}
}

// TestIndexedDisjunctiveFallsBack: disjunctive queries cannot filter
// through a single-predicate index; the engine must fall back to scanning
// and still answer correctly.
func TestIndexedDisjunctiveFallsBack(t *testing.T) {
	w := indexWorkload(t, 901, func(r *workload.Ranges) { r.Disjunctive = true })
	plain, mPlain := runIndexed(t, w, BL)
	buildIndexes(t, w)
	indexed, mIndexed := runIndexed(t, w, BL)
	if answerSummary(plain) != answerSummary(indexed) {
		t.Error("disjunctive indexed answer differs")
	}
	if mPlain.DiskBytes != mIndexed.DiskBytes {
		t.Errorf("disjunctive query used the index: %d vs %d", mIndexed.DiskBytes, mPlain.DiskBytes)
	}
}

// TestIndexedSchoolQ1: the school example with indexes on the locally
// evaluable predicate attributes still answers per the paper.
func TestIndexedSchoolQ1(t *testing.T) {
	fx := schoolFixture(t)
	if _, err := fx.Databases["DB2"].CreateIndex("Address", "city"); err != nil {
		t.Fatal(err)
	}
	// An index on a branch class is never probed (only direct root
	// predicates are); index the root-reachable attribute too.
	if _, err := fx.Databases["DB1"].CreateIndex("Student", "name"); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Global:      fx.Global,
		Coordinator: "G",
		Databases:   fx.Databases,
		Tables:      fx.Mapping,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := schoolBound(t, fx)
	ans, _, err := e.Run(fabric.NewReal(fabric.DefaultRates()), BL, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := answerSummary(ans); got != "certain: gs4(Hedy, Kelly) maybe: gs2(Tony, Haley)" {
		t.Errorf("answer = %q", got)
	}
}
