// Package adapt closes the feedback loop between execution and planning:
// a Calibrator ingests finished queries' measured profiles and maintains
// per-site observed cost rates (EWMA-smoothed multiples of the paper's
// Table 1 constants), and a Selector picks CA/BL/PL per query from the
// calibrated model, steering away from check-heavy plans when a peer site
// is degraded (breaker open, or repeatedly unavailable in the profiles).
//
// The paper chooses strategies from fixed Table 1 rates; heterogeneous
// federations drift from any fixed constants, so the calibrator re-derives
// each site's effective rates from what the site actually did: the profile
// records the measured microseconds a site spent (Profile.Phases) and the
// event counts it performed (Profile.IO), and their ratio over the modeled
// time the Table 1 rates would predict is the site's observed slowdown factor.
package adapt

import (
	"sync"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/trace"
)

// The calibrator's constants. Only Alpha has two values in use (Config).
const (
	// DefaultAlpha weights a new observation against the running scale.
	DefaultAlpha = 0.3
	// DefaultMinScale / DefaultMaxScale clamp one observation's ratio so a
	// single outlier profile (cold cache, GC pause) cannot blow up the model.
	DefaultMinScale = 0.05
	DefaultMaxScale = 100
	// DefaultFailThreshold is the failure score above which Degraded reports
	// a site as "open". Scores move by Alpha per observation, so with the
	// default alpha a site must miss a few queries in a row to cross it.
	DefaultFailThreshold = 0.5
)

// Config parameterizes a Calibrator. The zero value is usable.
type Config struct {
	// Coordinator is skipped during rate calibration: the coordinating
	// site's spans cover the whole fan-out (its CA "O" span spans every
	// component site's work, its rpc spans include round trips), so its
	// measured-over-modeled ratio does not describe its local speed.
	Coordinator object.SiteID
	// Alpha is the EWMA weight of a new observation, in (0,1]. Zero means
	// DefaultAlpha.
	Alpha float64
}

// Calibrator learns per-site effective rates from finished queries'
// profiles. It implements planner.RateModel, so planner.EstimatesWith can
// predict strategy costs under the observed rates instead of the global
// constants. Safe for concurrent use.
type Calibrator struct {
	cfg  Config
	base fabric.Rates // the uncalibrated rates the scales multiply: Table 1's

	mu     sync.Mutex
	scales map[object.SiteID]float64 // EWMA of measured/modeled time ratio
	fails  map[object.SiteID]float64 // EWMA of "was unavailable this query"
}

var _ planner.RateModel = (*Calibrator)(nil)

// NewCalibrator returns a calibrator with the given configuration.
func NewCalibrator(cfg Config) *Calibrator {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = DefaultAlpha
	}
	return &Calibrator{
		cfg:    cfg,
		base:   fabric.DefaultRates(),
		scales: make(map[object.SiteID]float64),
		fails:  make(map[object.SiteID]float64),
	}
}

// Observe ingests one finished query's profile: for every component site
// with measured event counts it updates the site's rate scale, and for
// every site the query touched (or failed to reach) it updates the site's
// failure score.
func (c *Calibrator) Observe(p *trace.Profile) {
	if p == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	for site, io := range p.IO {
		sid := object.SiteID(site)
		if sid == c.cfg.Coordinator || site == planner.CoordSite {
			continue
		}
		// Modeled local time for what the site measurably did. Net bytes are
		// excluded: transfer time is a property of the shared medium, and the
		// phase spans do not attribute it separably.
		modeled := c.base.Work(io.DiskBytes, io.CPUOps, 0)
		// Measured local time: the site's largest phase attribution. Max, not
		// sum — a "PO" span contributes its full duration to both phases, so
		// summing would double-count inseparable work.
		measured := 0.0
		for _, ph := range []string{"O", "I", "P"} {
			if v := p.Phases.Get(site, ph); v > measured {
				measured = v
			}
		}
		if modeled <= 0 || measured <= 0 {
			continue
		}
		ratio := measured / modeled
		if ratio < DefaultMinScale {
			ratio = DefaultMinScale
		}
		if ratio > DefaultMaxScale {
			ratio = DefaultMaxScale
		}
		if prev, ok := c.scales[sid]; ok {
			c.scales[sid] = (1-c.cfg.Alpha)*prev + c.cfg.Alpha*ratio
		} else {
			c.scales[sid] = ratio
		}
	}

	// Failure tracking: a site listed unavailable moves toward 1, a site
	// that served the query decays toward 0. This gives the selector a
	// degradation signal even where no circuit breaker runs (the simulated
	// runtime's kill faults).
	down := make(map[object.SiteID]bool, len(p.Unavailable))
	for _, s := range p.Unavailable {
		down[object.SiteID(s)] = true
	}
	touched := make(map[object.SiteID]bool, len(p.Sites))
	for _, s := range p.Sites {
		touched[s] = true
	}
	for s := range down {
		touched[s] = true
	}
	for sid := range touched {
		if sid == c.cfg.Coordinator || string(sid) == planner.CoordSite {
			continue
		}
		target := 0.0
		if down[sid] {
			target = 1
		}
		if prev, ok := c.fails[sid]; ok {
			c.fails[sid] = (1-c.cfg.Alpha)*prev + c.cfg.Alpha*target
		} else {
			c.fails[sid] = target
		}
	}
}

// SiteRates implements planner.RateModel: the base rates scaled by the
// site's observed slowdown, or the base rates unchanged for a site (or the
// coordinator placeholder) never observed.
func (c *Calibrator) SiteRates(site object.SiteID) fabric.Rates {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.scales[site]; ok {
		return c.base.Scale(s)
	}
	return c.base
}

// Scales returns a copy of the per-site observed slowdown factors.
func (c *Calibrator) Scales() map[object.SiteID]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[object.SiteID]float64, len(c.scales))
	for k, v := range c.scales {
		out[k] = v
	}
	return out
}

// Degraded returns the sites whose failure score exceeds the threshold,
// mapped to the breaker-state vocabulary ("open") so it merges with live
// breaker health in the selector.
func (c *Calibrator) Degraded() map[object.SiteID]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[object.SiteID]string)
	for k, v := range c.fails {
		if v > DefaultFailThreshold {
			out[k] = "open"
		}
	}
	return out
}
