package exec

import (
	"math/rand"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/workload"
)

// TestDisjunctiveSchool pins hand-computed answers for a disjunctive query
// on the school federation under every strategy:
//
//	select name from Student where age < 25 or advisor.speciality = "database"
//
//	John (31, Jeffery/network)  -> false or false            -> out
//	Tony (28, Haley/null spec)  -> false or unknown          -> maybe
//	Mary (24, Abel/no spec anywhere) -> TRUE or unknown      -> certain
//	Hedy (no age, Kelly/database)    -> unknown or TRUE      -> certain
//	Fanny (no age, Jeffery/network)  -> unknown or false     -> maybe
func TestDisjunctiveSchool(t *testing.T) {
	e, _ := schoolEngine(t)
	fx := schoolFixture(t)
	b := query.MustBind(query.MustParse(
		`select name from Student where age < 25 or advisor.speciality = "database"`),
		fx.Global)

	const want = "certain: gs3(Mary) gs4(Hedy) maybe: gs2(Tony) gs5(Fanny)"
	for _, alg := range Algorithms() {
		ans, _, err := e.Run(fabric.NewReal(fabric.DefaultRates()), alg, b)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := answerSummary(ans); got != want {
			t.Errorf("%v = %q, want %q", alg, got, want)
		}
		// And on the simulated runtime.
		ans, _, err = e.Run(fabric.NewSim(fabric.DefaultRates(), e.Sites()), alg, b)
		if err != nil {
			t.Fatalf("%v sim: %v", alg, err)
		}
		if got := answerSummary(ans); got != want {
			t.Errorf("%v sim = %q, want %q", alg, got, want)
		}
	}
}

// TestDisjunctiveCertificationUpgrade: a disjunct solved through an
// assistant check certifies the whole entity even when the other disjunct
// stays unknown.
func TestDisjunctiveCertificationUpgrade(t *testing.T) {
	e, _ := schoolEngine(t)
	fx := schoolFixture(t)
	// Hedy: address.city = "Nowhere" is FALSE at DB2; advisor.department
	// is missing at DB2 but Kelly's DB3 record resolves it to CS -> the
	// second disjunct certifies.
	b := query.MustBind(query.MustParse(
		`select name from Student where address.city = "Nowhere" or advisor.department.name = "CS"`),
		fx.Global)
	for _, alg := range Algorithms() {
		ans, _, err := e.Run(fabric.NewReal(fabric.DefaultRates()), alg, b)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		certain := goidSet(ans.Certain)
		if !certain["gs4"] {
			t.Errorf("%v: Hedy not certified: %s", alg, answerSummary(ans))
		}
	}
}

// TestDisjunctiveAgreementProperty extends the central agreement property
// to disjunctive queries over random federations.
func TestDisjunctiveAgreementProperty(t *testing.T) {
	r := smallRanges()
	r.Disjunctive = true
	for seed := int64(600); seed < 625; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := r.Draw(rng)
		w, err := workload.Generate(p, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		ca, _ := runWorkload(t, w, CA)
		bl, _ := runWorkload(t, w, BL)
		pl, _ := runWorkload(t, w, PL)

		if answerSummary(pl) != answerSummary(bl) {
			t.Errorf("seed %d: PL != BL\n PL: %s\n BL: %s", seed, answerSummary(pl), answerSummary(bl))
		}
		caCertain, caMaybe := goidSet(ca.Certain), goidSet(ca.Maybe)
		blCertain, blMaybe := goidSet(bl.Certain), goidSet(bl.Maybe)
		for g := range blCertain {
			if !caCertain[g] {
				t.Errorf("seed %d: %s certain under BL but not CA", seed, g)
			}
		}
		for g := range caCertain {
			if !blCertain[g] && !blMaybe[g] {
				t.Errorf("seed %d: %s lost by BL", seed, g)
			}
		}
		for g := range caMaybe {
			if !blCertain[g] && !blMaybe[g] {
				t.Errorf("seed %d: %s (CA maybe) eliminated by BL", seed, g)
			}
		}
		for g := range blMaybe {
			if !caCertain[g] && !caMaybe[g] {
				t.Errorf("seed %d: %s kept by BL but eliminated by CA", seed, g)
			}
		}
	}
}
