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
}

func newCalibrator(coord object.SiteID) *calibrator {
	return &calibrator{
		coord:  coord,
		scales: make(map[object.SiteID]float64),
	}
}

// observe ingests one finished query's profile: for every component site
// with measured event counts it folds the site's measured-over-modeled time
// ratio into the site's rate scale (an EWMA; the first observation sets it).
// A site the query could not reach has no measured counts and is left as it
// was: unavailability is missing data, not a cost.
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
		// sum — BL's one site step, BL_C1+C2 ("PO"), contributes its full
		// duration to both phases, so summing would double-count it.
		measured := 0.0
		for _, ph := range []string{"O", "I", "P"} {
			measured = max(measured, p.Phases.Get(site, ph))
		}
		if modeled <= 0 || measured <= 0 {
			continue
		}
		ratio := min(max(measured/modeled, minScale), maxScale)
		if prev, ok := c.scales[sid]; ok {
			ratio = (1-alpha)*prev + alpha*ratio
		}
		c.scales[sid] = ratio
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
