package exec

import (
	"math/rand"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/workload"
)

func runWithSigs(t *testing.T, w *workload.Workload, alg Algorithm) (*federation.Answer, fabric.Metrics) {
	t.Helper()
	e, err := New(Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
		Signatures:  signature.Build(w.Databases),
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

// TestSignatureVariantsPreserveAnswers: SBL and SPL must return exactly the
// answers of BL and PL — signatures shift verdicts from network checks to
// local probes, never change them.
func TestSignatureVariantsPreserveAnswers(t *testing.T) {
	r := smallRanges()
	r.EqualityPreds = true
	for seed := int64(300); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := r.Draw(rng)
		w, err := workload.Generate(p, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bl, _ := runWithSigs(t, w, BL)
		sbl, _ := runWithSigs(t, w, SBL)
		if answerSummary(bl) != answerSummary(sbl) {
			t.Errorf("seed %d: SBL differs from BL:\n BL:  %s\n SBL: %s",
				seed, answerSummary(bl), answerSummary(sbl))
		}
		pl, _ := runWithSigs(t, w, PL)
		spl, _ := runWithSigs(t, w, SPL)
		if answerSummary(pl) != answerSummary(spl) {
			t.Errorf("seed %d: SPL differs from PL:\n PL:  %s\n SPL: %s",
				seed, answerSummary(pl), answerSummary(spl))
		}
	}
}

// TestSignatureVariantsReduceNetwork: on equality-predicate workloads the
// signature probes must never increase — and should usually decrease — the
// network volume of the localized strategies.
func TestSignatureVariantsReduceNetwork(t *testing.T) {
	r := smallRanges()
	r.EqualityPreds = true
	reducedSomewhere := false
	for seed := int64(400); seed < 412; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := r.Draw(rng)
		w, err := workload.Generate(p, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, mBL := runWithSigs(t, w, BL)
		_, mSBL := runWithSigs(t, w, SBL)
		if mSBL.NetBytes > mBL.NetBytes {
			t.Errorf("seed %d: SBL net %d > BL net %d", seed, mSBL.NetBytes, mBL.NetBytes)
		}
		if mSBL.NetBytes < mBL.NetBytes {
			reducedSomewhere = true
		}
		_, mPL := runWithSigs(t, w, PL)
		_, mSPL := runWithSigs(t, w, SPL)
		if mSPL.NetBytes > mPL.NetBytes {
			t.Errorf("seed %d: SPL net %d > PL net %d", seed, mSPL.NetBytes, mPL.NetBytes)
		}
	}
	if !reducedSomewhere {
		t.Error("signatures never reduced network volume on any seed")
	}
}

// TestSignatureAlgorithmsRequireIndex: SBL/SPL without a configured index
// fail loudly rather than silently degrading to BL/PL.
func TestSignatureAlgorithmsRequireIndex(t *testing.T) {
	e, b := schoolEngine(t)
	for _, alg := range []Algorithm{SBL, SPL} {
		if _, _, err := e.Run(fabric.NewReal(fabric.DefaultRates()), alg, b); err == nil {
			t.Errorf("%v without signatures accepted", alg)
		}
	}
}

// TestSignatureVariantsOnSchool: the school fixture's Q1 uses equality
// predicates, so the signature variants apply and must reproduce the
// paper's answer.
func TestSignatureVariantsOnSchool(t *testing.T) {
	fx := schoolFixture(t)
	e, err := New(Config{
		Global:      fx.Global,
		Coordinator: "G",
		Databases:   fx.Databases,
		Tables:      fx.Mapping,
		Signatures:  signature.Build(fx.Databases),
	})
	if err != nil {
		t.Fatal(err)
	}
	b := schoolBound(t, fx)
	const want = "certain: gs4(Hedy, Kelly) maybe: gs2(Tony, Haley)"
	for _, alg := range []Algorithm{SBL, SPL} {
		ans, _, err := e.Run(fabric.NewReal(fabric.DefaultRates()), alg, b)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := answerSummary(ans); got != want {
			t.Errorf("%v = %q, want %q", alg, got, want)
		}
	}
}
