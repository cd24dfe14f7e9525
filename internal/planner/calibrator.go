package planner

import (
	"sync"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/trace"
)

// The calibrator's constants.
const (
	// alpha weights a new observation against the running scale.
	alpha = 0.3
	// minScale / maxScale clamp one observation's ratio so a single outlier
	// profile (cold cache, GC pause) cannot blow up the model.
	minScale = 0.05
	maxScale = 100
	// failThreshold is the failure score above which degraded reports a site
	// as "open". Scores move by alpha per observation, so a site must miss a
	// few queries in a row to cross it.
	failThreshold = 0.5
)

// calibrator learns per-site effective rates from finished queries'
// profiles: the Table 1 rates scaled by each site's observed slowdown. A
// site it has not observed — the coordinator always — is charged Table 1's
// rates unchanged. Safe for concurrent use.
type calibrator struct {
	// coord is the coordinating site. The estimator files coordinator work
	// under it; calibration skips it: its spans cover the whole fan-out (its
	// CA "O" span spans every component site's work, its rpc spans include
	// round trips), so its measured-over-modeled ratio does not describe its
	// local speed.
	coord object.SiteID

	mu     sync.Mutex
	scales map[object.SiteID]float64 // EWMA of measured/modeled time ratio
	fails  map[object.SiteID]float64 // EWMA of "was unavailable this query"
}

func newCalibrator(coord object.SiteID) *calibrator {
	return &calibrator{
		coord:  coord,
		scales: make(map[object.SiteID]float64),
		fails:  make(map[object.SiteID]float64),
	}
}

// ewma folds one observation into a running score; the first observation
// sets it.
func ewma(scores map[object.SiteID]float64, site object.SiteID, v float64) {
	if prev, ok := scores[site]; ok {
		v = (1-alpha)*prev + alpha*v
	}
	scores[site] = v
}

// observe ingests one finished query's profile: for every component site
// with measured event counts it updates the site's rate scale, and for
// every site the query touched (or failed to reach) it updates the site's
// failure score.
func (c *calibrator) observe(p *trace.Profile) {
	if p == nil {
		return
	}
	base := fabric.DefaultRates()
	c.mu.Lock()
	defer c.mu.Unlock()

	for site, io := range p.IO {
		sid := object.SiteID(site)
		if sid == c.coord {
			continue
		}
		// Modeled local time for what the site measurably did. Net bytes are
		// excluded: transfer time is a property of the shared medium, and the
		// phase spans do not attribute it separably.
		modeled := base.Work(io.DiskBytes, io.CPUOps, 0)
		// Measured local time: the site's largest phase attribution. Max, not
		// sum — a "PO" span contributes its full duration to both phases, so
		// summing would double-count inseparable work.
		measured := 0.0
		for _, ph := range []string{"O", "I", "P"} {
			measured = max(measured, p.Phases.Get(site, ph))
		}
		if modeled <= 0 || measured <= 0 {
			continue
		}
		ewma(c.scales, sid, min(max(measured/modeled, minScale), maxScale))
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
		if sid == c.coord {
			continue
		}
		target := 0.0
		if down[sid] {
			target = 1
		}
		ewma(c.fails, sid, target)
	}
}

// siteRates returns Table 1's rates scaled by the site's observed slowdown,
// or unchanged for a site never observed.
func (c *calibrator) siteRates(site object.SiteID) fabric.Rates {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.scales[site]; ok {
		return fabric.DefaultRates().Scale(s)
	}
	return fabric.DefaultRates()
}

// degraded returns the sites whose failure score exceeds the threshold,
// mapped to the breaker-state vocabulary ("open") so it merges with live
// breaker health in the selector.
func (c *calibrator) degraded() map[object.SiteID]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[object.SiteID]string)
	for k, v := range c.fails {
		if v > failThreshold {
			out[k] = "open"
		}
	}
	return out
}
