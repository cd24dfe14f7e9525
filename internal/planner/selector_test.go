package planner

import (
	"testing"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/trace"
)

func schoolSelector(t *testing.T) (*Selector, *query.Bound) {
	t.Helper()
	_, cat, b := schoolCatalog(t)
	return NewSelector(cat, "G"), b
}

// siteProfile synthesizes a finished query's profile in which the given
// site measurably ran ratio× slower than the base rates predict for the
// events it performed.
func siteProfile(site string, ratio float64, base fabric.Rates) *trace.Profile {
	io := trace.SiteIO{DiskBytes: 1000, CPUOps: 100}
	p := &trace.Profile{
		ID: "synthetic", Alg: "PL", Status: trace.StatusOK,
		Sites:  []object.SiteID{object.SiteID(site)},
		Phases: &cost.Breakdown{},
		IO:     map[string]trace.SiteIO{site: io},
	}
	p.Phases.Add(site, "O", ratio*base.Work(io.DiskBytes, io.CPUOps, 0))
	return p
}

func TestCalibratorSiteRates(t *testing.T) {
	base := fabric.DefaultRates()
	cal := newCalibrator("G")

	// Unobserved site: base rates unchanged.
	if got := cal.siteRates("DB1"); got != base {
		t.Errorf("unobserved rates = %+v", got)
	}

	// First observation sets the scale directly: ratio 4 → 4× base.
	cal.observe(siteProfile("DB1", 4, base))
	want := base.Scale(4)
	if got := cal.siteRates("DB1"); !closeRates(got, want) {
		t.Errorf("calibrated rates = %+v, want %+v", got, want)
	}
	if s := cal.scales["DB1"]; s < 3.99 || s > 4.01 {
		t.Errorf("scale = %g, want 4", s)
	}

	// The coordinator site is never calibrated: its spans cover the fan-out.
	cal.observe(siteProfile("G", 9, base))
	if got := cal.siteRates("G"); got != base {
		t.Errorf("coordinator rates calibrated: %+v", got)
	}

	// An absurd single observation is clamped to maxScale.
	cal.observe(siteProfile("DB2", 1e6, base))
	if s := cal.scales["DB2"]; s != maxScale {
		t.Errorf("clamped scale = %g, want %d", s, maxScale)
	}
}

func TestCalibratorEWMA(t *testing.T) {
	base := fabric.DefaultRates()
	cal := newCalibrator("G")
	cal.observe(siteProfile("DB1", 1, base))
	cal.observe(siteProfile("DB1", 5, base))
	// 0.7·1 + 0.3·5 = 2.2.
	if s := cal.scales["DB1"]; s < 2.19 || s > 2.21 {
		t.Errorf("EWMA scale = %g, want 2.2", s)
	}
}

// TestRank pins the choice on synthetic estimates: the lowest predicted
// response wins, a tie goes to the lower total, a full tie to the earlier
// estimate. Nothing but the two predictions enters the ranking.
func TestRank(t *testing.T) {
	cases := []struct {
		name string
		ests []Estimate
		want exec.Algorithm
	}{
		{"response", []Estimate{
			{Alg: exec.CA, ResponseMicros: 170, TotalMicros: 300},
			{Alg: exec.BL, ResponseMicros: 120, TotalMicros: 250},
			{Alg: exec.PL, ResponseMicros: 100, TotalMicros: 280},
		}, exec.PL},
		{"total breaks a response tie", []Estimate{
			{Alg: exec.CA, ResponseMicros: 170, TotalMicros: 300},
			{Alg: exec.BL, ResponseMicros: 100, TotalMicros: 250},
			{Alg: exec.PL, ResponseMicros: 100, TotalMicros: 280},
		}, exec.BL},
		{"earlier breaks a full tie", []Estimate{
			{Alg: exec.CA, ResponseMicros: 100, TotalMicros: 250},
			{Alg: exec.BL, ResponseMicros: 100, TotalMicros: 250},
			{Alg: exec.PL, ResponseMicros: 100, TotalMicros: 250},
		}, exec.CA},
	}
	for _, tc := range cases {
		if got := rank(tc.ests); got.Alg != tc.want {
			t.Errorf("%s: chose %v, want %v", tc.name, got.Alg, tc.want)
		}
	}
}

// TestConvergenceFlipsStrategy: the selector starts at the static choice
// (PL for school Q1 under Table 1 rates) and must flip once the calibrator
// has seen a few profiles showing a site running far from the constants.
// Slowing root site DB1 makes CA cheapest; slowing DB2 makes BL cheapest
// (probed against the planner's model, the same ground the static planner
// chooses on).
func TestConvergenceFlipsStrategy(t *testing.T) {
	cases := []struct {
		slowSite string
		want     exec.Algorithm
	}{
		{"DB1", exec.CA},
		{"DB2", exec.BL},
	}
	for _, tc := range cases {
		sel, b := schoolSelector(t)

		if got := sel.Select(b); got != exec.PL {
			t.Fatalf("static choice = %v, want PL", got)
		}

		// One on-model observation first, so the flip exercises EWMA movement
		// rather than the first-observation shortcut.
		sel.Observe(siteProfile(tc.slowSite, 1, fabric.DefaultRates()))
		const maxObs = 5
		flipped := -1
		for i := 1; i <= maxObs; i++ {
			sel.Observe(siteProfile(tc.slowSite, 8, fabric.DefaultRates()))
			if sel.Select(b) == tc.want {
				flipped = i
				break
			}
		}
		if flipped < 0 {
			t.Fatalf("slow %s: no flip to %v within %d observations (scales %v, last %+v)",
				tc.slowSite, tc.want, maxObs, sel.cal.scales, sel.LastDecision())
		}
		t.Logf("slow %s: flipped to %v after %d slow observations (scale %.2f)",
			tc.slowSite, tc.want, flipped, sel.cal.scales[object.SiteID(tc.slowSite)])

		d := sel.LastDecision()
		if d == nil || d.Alg != tc.want || len(d.Estimates) != 3 {
			t.Errorf("decision = %+v", d)
		}
	}
}

// TestUnavailableSiteLeavesChoiceAlone: a profile reporting a site
// unavailable (a kill fault) carries no measured work for it, so the
// calibrated estimates stay the fresh selector's and the choice stays the
// Table 1 planner's. An unreachable site is missing data — every strategy
// returns the same certain and maybe rows — not a cost.
func TestUnavailableSiteLeavesChoiceAlone(t *testing.T) {
	sel, b := schoolSelector(t)
	fresh, _ := schoolSelector(t)

	for i := 0; i < 5; i++ {
		sel.Observe(&trace.Profile{
			ID: "degraded", Alg: "PL", Status: trace.StatusDegraded,
			Sites:       []object.SiteID{"DB1", "DB2", "DB3"},
			Unavailable: []string{"DB3"},
			Phases:      &cost.Breakdown{},
		})
	}
	if got := sel.Select(b); got != exec.PL {
		t.Errorf("after unavailability: chose %v, want PL (decision %+v)", got, sel.LastDecision())
	}
	got, want := sel.Estimate(b), fresh.Estimate(b)
	for i := range want {
		if got[i].ResponseMicros != want[i].ResponseMicros || got[i].TotalMicros != want[i].TotalMicros {
			t.Errorf("%v: estimate (%g, %g) moved from the fresh selector's (%g, %g)", want[i].Alg,
				got[i].ResponseMicros, got[i].TotalMicros, want[i].ResponseMicros, want[i].TotalMicros)
		}
	}
}

func closeRates(a, b fabric.Rates) bool {
	close := func(x, y float64) bool {
		d := x - y
		return d < 1e-9 && d > -1e-9
	}
	return close(a.DiskPerByte, b.DiskPerByte) &&
		close(a.NetPerByte, b.NetPerByte) &&
		close(a.CPUPerOp, b.CPUPerOp)
}
