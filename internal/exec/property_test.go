package exec

import (
	"math/rand"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/workload"
)

// smallRanges shrinks the Table 2 federations for fast property testing
// while keeping every structural feature (missing attributes, nulls,
// isomerism, multi-class chains).
func smallRanges() workload.Ranges {
	r := workload.DefaultRanges()
	r.NObjects = [2]int{25, 45}
	return r
}

func runWorkload(t *testing.T, w *workload.Workload, alg Algorithm) (*federation.Answer, fabric.Metrics) {
	t.Helper()
	e, err := New(Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ans, m, err := e.Run(fabric.NewReal(fabric.DefaultRates()), alg, w.Bound)
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return ans, m
}

func goidSet(rows []federation.ResultRow) map[object.GOid]bool {
	out := make(map[object.GOid]bool, len(rows))
	for _, r := range rows {
		out[r.GOid] = true
	}
	return out
}

// TestAlgorithmAgreementProperty is the central correctness property over
// random Table 2 workloads:
//
//  1. BL and PL return exactly the same answer (PL differs only in cost and
//     parallel structure, never in information).
//  2. The localized strategies decide no more than the fully integrated
//     view (CA): every certain result they report is certain under CA, and
//     they never eliminate an entity CA keeps. They may report as maybe an
//     entity CA certifies, because certification uses one level of
//     assistance while CA merges transitively. (2c) also holds them to
//     keeping nothing CA eliminates, which is true of the Table 2
//     generator's shapes but not of a chained path, where they keep as
//     maybe what CA eliminates (TestOneLevelOfAssistance, DESIGN.md §4
//     invariant 1).
func TestAlgorithmAgreementProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := smallRanges().Draw(rng)
		w, err := workload.Generate(p, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		ca, _ := runWorkload(t, w, CA)
		bl, _ := runWorkload(t, w, BL)
		pl, _ := runWorkload(t, w, PL)

		// (1) BL == PL exactly.
		if got, want := answerSummary(pl), answerSummary(bl); got != want {
			t.Errorf("seed %d: PL answer differs from BL:\n PL: %s\n BL: %s", seed, got, want)
		}

		caCertain, caMaybe := goidSet(ca.Certain), goidSet(ca.Maybe)
		blCertain, blMaybe := goidSet(bl.Certain), goidSet(bl.Maybe)

		// (2a) BL-certain ⊆ CA-certain: no false certification.
		for g := range blCertain {
			if !caCertain[g] {
				t.Errorf("seed %d: %s certain under BL but not under CA", seed, g)
			}
		}
		// (2b) CA results ⊆ BL results: no false elimination.
		for g := range caCertain {
			if !blCertain[g] && !blMaybe[g] {
				t.Errorf("seed %d: %s certain under CA but eliminated by BL", seed, g)
			}
		}
		for g := range caMaybe {
			if !blCertain[g] && !blMaybe[g] {
				t.Errorf("seed %d: %s maybe under CA but eliminated by BL", seed, g)
			}
		}
		// (2c) BL never keeps an entity CA eliminates.
		for g := range blCertain {
			if !caCertain[g] && !caMaybe[g] {
				t.Errorf("seed %d: %s certain under BL but eliminated by CA", seed, g)
			}
		}
		for g := range blMaybe {
			if !caCertain[g] && !caMaybe[g] {
				t.Errorf("seed %d: %s maybe under BL but eliminated by CA", seed, g)
			}
		}
	}
}

// TestCertainSoundnessNoNulls: with no original nulls and every predicate
// attribute held somewhere, the only missing data is schema-level. The
// answers must still agree per the lattice, and with no missing data at all
// (every site holds everything) all three classifications must be exactly
// equal with an empty maybe set.
func TestNoMissingDataExactAgreement(t *testing.T) {
	r := smallRanges()
	r.NullRatio = [2]float64{0, 0}
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := r.Draw(rng)
		// Force every site to hold every predicate attribute.
		for k := range p.Classes {
			all := make([]int, p.Classes[k].NPreds)
			for j := range all {
				all[j] = j
			}
			for i := range p.Classes[k].HeldPreds {
				p.Classes[k].HeldPreds[i] = all
			}
		}
		w, err := workload.Generate(p, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ca, _ := runWorkload(t, w, CA)
		bl, _ := runWorkload(t, w, BL)
		pl, _ := runWorkload(t, w, PL)
		if len(ca.Maybe) != 0 || len(bl.Maybe) != 0 || len(pl.Maybe) != 0 {
			t.Errorf("seed %d: maybe results without missing data: CA=%d BL=%d PL=%d",
				seed, len(ca.Maybe), len(bl.Maybe), len(pl.Maybe))
		}
		if answerSummary(ca) != answerSummary(bl) || answerSummary(bl) != answerSummary(pl) {
			t.Errorf("seed %d: answers disagree without missing data", seed)
		}
	}
}

// TestPLNeverCheaperOnNetwork: the parallel localized approach dispatches
// checks before filtering, so across random workloads its network volume is
// never below BL's.
func TestPLNeverCheaperOnNetwork(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := smallRanges().Draw(rng)
		w, err := workload.Generate(p, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, mBL := runWorkload(t, w, BL)
		_, mPL := runWorkload(t, w, PL)
		if mPL.NetBytes < mBL.NetBytes {
			t.Errorf("seed %d: PL net %d < BL net %d", seed, mPL.NetBytes, mBL.NetBytes)
		}
	}
}
