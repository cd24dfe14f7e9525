package adapt

import (
	"testing"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

func schoolSelector(t *testing.T, cal *Calibrator, health Health) (*Selector, *query.Bound) {
	t.Helper()
	fx := school.New()
	cat := planner.BuildCatalog(fx.Global, fx.Databases, fx.Mapping)
	b := query.MustBind(query.MustParse(school.Q1), fx.Global)
	return NewSelector(cat, cal, health), b
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
	cal := NewCalibrator(Config{Coordinator: "G"})

	// Unobserved site: base rates unchanged.
	if got := cal.SiteRates("DB1"); got != base {
		t.Errorf("unobserved rates = %+v", got)
	}

	// First observation sets the scale directly: ratio 4 → 4× base.
	cal.Observe(siteProfile("DB1", 4, base))
	want := base.Scale(4)
	if got := cal.SiteRates("DB1"); !closeRates(got, want) {
		t.Errorf("calibrated rates = %+v, want %+v", got, want)
	}
	if s := cal.Scales()["DB1"]; s < 3.99 || s > 4.01 {
		t.Errorf("scale = %g, want 4", s)
	}

	// The coordinator site is never calibrated: its spans cover the fan-out.
	cal.Observe(siteProfile("G", 9, base))
	if got := cal.SiteRates("G"); got != base {
		t.Errorf("coordinator rates calibrated: %+v", got)
	}

	// An absurd single observation is clamped to MaxScale.
	cal2 := NewCalibrator(Config{})
	cal2.Observe(siteProfile("DB2", 1e6, base))
	if s := cal2.Scales()["DB2"]; s != DefaultMaxScale {
		t.Errorf("clamped scale = %g, want %d", s, DefaultMaxScale)
	}
}

func TestCalibratorEWMA(t *testing.T) {
	base := fabric.DefaultRates()
	cal := NewCalibrator(Config{Alpha: 0.5})
	cal.Observe(siteProfile("DB1", 1, base))
	cal.Observe(siteProfile("DB1", 5, base))
	// 0.5·1 + 0.5·5 = 3.
	if s := cal.Scales()["DB1"]; s < 2.99 || s > 3.01 {
		t.Errorf("EWMA scale = %g, want 3", s)
	}
}

// TestRankPenalty pins the fallback ladder on synthetic estimates: healthy
// picks the fastest plan (PL), a half-open peer demotes PL below BL (BL
// ships fewer checks), an open peer pushes past both to check-free CA.
func TestRankPenalty(t *testing.T) {
	ests := []planner.Estimate{
		{Alg: exec.CA, ResponseMicros: 170, TotalMicros: 300, CheckMicros: 0},
		{Alg: exec.BL, ResponseMicros: 120, TotalMicros: 250, CheckMicros: 30},
		{Alg: exec.PL, ResponseMicros: 100, TotalMicros: 280, CheckMicros: 60},
	}
	sites := []object.SiteID{"DB1", "DB2"}

	cases := []struct {
		name   string
		health map[object.SiteID]string
		want   exec.Algorithm
	}{
		{"healthy", nil, exec.PL},
		{"half-open", map[object.SiteID]string{"DB2": "half-open"}, exec.BL},
		{"open", map[object.SiteID]string{"DB2": "open"}, exec.CA},
		// A replica with suspect mapping classes (anti-entropy divergence)
		// weighs like a half-open breaker: reachable but unconfirmed.
		{"suspect", map[object.SiteID]string{"DB2": "suspect(course) round=3 repaired=0B"}, exec.BL},
		// A degraded site outside the query's fan-out is irrelevant.
		{"unrelated-open", map[object.SiteID]string{"DB9": "open"}, exec.PL},
	}
	for _, tc := range cases {
		best, penalized := Rank(ests, sites, tc.health)
		if best.Alg != tc.want {
			t.Errorf("%s: chose %v, want %v (penalized %v)", tc.name, best.Alg, tc.want, penalized)
		}
		if len(penalized) != 3 {
			t.Errorf("%s: penalized map %v", tc.name, penalized)
		}
	}

	// Penalized scores under half-open: resp + 1·check.
	_, pen := Rank(ests, sites, map[object.SiteID]string{"DB1": "half-open"})
	if pen[exec.BL] != 150 || pen[exec.PL] != 160 || pen[exec.CA] != 170 {
		t.Errorf("half-open scores = %v", pen)
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
		cal := NewCalibrator(Config{Coordinator: "G"})
		sel, b := schoolSelector(t, cal, nil)

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
				tc.slowSite, tc.want, maxObs, cal.Scales(), sel.LastDecision())
		}
		t.Logf("slow %s: flipped to %v after %d slow observations (scale %.2f)",
			tc.slowSite, tc.want, flipped, cal.Scales()[object.SiteID(tc.slowSite)])

		d := sel.LastDecision()
		if d == nil || d.Alg != tc.want || len(d.Estimates) != 3 {
			t.Errorf("decision = %+v", d)
		}
	}
}

// TestUnavailableSiteBiasesSelection: profiles reporting a site unavailable
// (the simulated runtime's kill faults — no breaker runs there) must bias
// selection away from check-heavy plans. For school Q1 the check target DB3
// going dark makes check-free CA win over PL/BL.
func TestUnavailableSiteBiasesSelection(t *testing.T) {
	cal := NewCalibrator(Config{Coordinator: "G"})
	sel, b := schoolSelector(t, cal, nil)

	if got := sel.Select(b); got != exec.PL {
		t.Fatalf("static choice = %v, want PL", got)
	}
	p := &trace.Profile{
		ID: "degraded", Alg: "PL", Status: trace.StatusDegraded,
		Sites:       []object.SiteID{"DB1", "DB2", "DB3"},
		Unavailable: []string{"DB3"},
		Phases:      &cost.Breakdown{},
	}
	sel.Observe(p)
	if got := sel.Select(b); got != exec.CA {
		t.Errorf("after unavailability: chose %v, want CA (decision %+v)", got, sel.LastDecision())
	}
	d := sel.LastDecision()
	if d.Health["DB3"] != "open" {
		t.Errorf("health = %v, want DB3 open", d.Health)
	}

	// Recovery: the failure score decays as DB3 serves queries again.
	for i := 0; i < 20; i++ {
		ok := &trace.Profile{
			ID: "ok", Alg: "PL", Status: trace.StatusOK,
			Sites:  []object.SiteID{"DB1", "DB2", "DB3"},
			Phases: &cost.Breakdown{},
		}
		sel.Observe(ok)
	}
	if got := sel.Select(b); got != exec.PL {
		t.Errorf("after recovery: chose %v, want PL (health %v)", got, sel.LastDecision().Health)
	}
}

// TestBreakerHealthBias: live breaker states reported by the health hook
// penalize exactly like calibrator-derived degradation.
func TestBreakerHealthBias(t *testing.T) {
	state := map[object.SiteID]string{}
	sel, b := schoolSelector(t, NewCalibrator(Config{Coordinator: "G"}), func() map[object.SiteID]string {
		return state
	})

	if got := sel.Select(b); got != exec.PL {
		t.Fatalf("static choice = %v, want PL", got)
	}
	state["DB3"] = "half-open"
	half := sel.Select(b)
	state["DB3"] = "open"
	open := sel.Select(b)
	if open != exec.CA {
		t.Errorf("open breaker: chose %v, want CA", open)
	}
	// Under any degradation the chosen plan must not carry more check work
	// than the healthy winner.
	d := sel.LastDecision()
	var healthyPL, chosen planner.Estimate
	for _, e := range d.Estimates {
		if e.Alg == exec.PL {
			healthyPL = e
		}
		if e.Alg == open {
			chosen = e
		}
	}
	if chosen.CheckMicros >= healthyPL.CheckMicros {
		t.Errorf("open-breaker choice %v has CheckMicros %.0f ≥ PL's %.0f",
			open, chosen.CheckMicros, healthyPL.CheckMicros)
	}
	_ = half
	state["DB3"] = "closed"
	if got := sel.Select(b); got != exec.PL {
		t.Errorf("closed breaker: chose %v, want PL", got)
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
