package planner

import (
	"strings"
	"sync"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/trace"
)

// Penalty weights per breaker state: an open breaker doubles a plan's
// check-time share, a half-open one adds it once. CA ships no checks
// (CheckMicros zero) and is never penalized; PL checks every object and is
// demoted below BL when a peer is suspect — BL ships fewer checks, which is
// exactly the degradation-aware fallback the selector encodes.
const (
	penaltyOpen     = 2.0
	penaltyHalfOpen = 1.0
)

// Health reports live per-site breaker states ("closed", "half-open",
// "open"), e.g. remote.Coordinator.BreakerStates. Nil when no breakers run
// (in-process and simulated executions); the calibrator's failure scores
// then carry the degradation signal alone.
type Health func() map[object.SiteID]string

// Decision records one choice for introspection (EXPLAIN).
type Decision struct {
	// Alg is the chosen strategy.
	Alg exec.Algorithm
	// Estimates are the calibrated predictions the choice ranked, in
	// exec.Algorithms() order.
	Estimates []Estimate
	// Health is the merged per-site state the penalty was computed from
	// (live breakers and calibrator failure scores).
	Health map[object.SiteID]string
}

// Selector is the one strategy chooser: it prices CA/BL/PL from the catalog
// at per-site rates calibrated from finished queries' profiles, and picks
// the cheapest. A selector that has observed nothing charges every site
// Table 1's rates and has no degraded site, so its choice is the static
// planner's. It implements exec.Selector and is safe for concurrent use.
type Selector struct {
	cat    *Catalog
	cal    *calibrator
	health Health

	mu   sync.Mutex
	last *Decision
}

var _ exec.Selector = (*Selector)(nil)

// NewSelector builds a selector choosing over the given catalog for queries
// the site coord coordinates. health may be nil.
func NewSelector(cat *Catalog, coord object.SiteID, health Health) *Selector {
	return &Selector{cat: cat, cal: newCalibrator(coord), health: health}
}

// Estimate predicts the costs of CA, BL and PL for a bound query at the
// calibrated per-site rates, ordered as exec.Algorithms().
func (s *Selector) Estimate(b *query.Bound) []Estimate {
	e := estimator{cat: s.cat, b: b, cal: s.cal}
	return []Estimate{e.ca(), e.localized(exec.BL), e.localized(exec.PL)}
}

// Select implements exec.Selector: estimate CA/BL/PL, penalize check-heavy
// plans by degraded-site state, and return the cheapest.
func (s *Selector) Select(b *query.Bound) exec.Algorithm {
	ests := s.Estimate(b)
	health := s.cal.degraded()
	if s.health != nil {
		for site, state := range s.health() {
			if severity(state) > severity(health[site]) {
				health[site] = state
			}
		}
	}
	best, _ := Rank(ests, b.InvolvedSites(), health)

	s.mu.Lock()
	s.last = &Decision{Alg: best.Alg, Estimates: ests, Health: health}
	s.mu.Unlock()
	return best.Alg
}

// Observe implements exec.Selector.
func (s *Selector) Observe(p *trace.Profile) { s.cal.observe(p) }

// LastDecision returns the most recent choice, nil before the first Select.
func (s *Selector) LastDecision() *Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Rank orders estimates by degradation-penalized response time and returns
// the winner plus every strategy's penalized score; ties go to the lower
// total, then to the earlier estimate. The penalty weight is the worst state
// among the query's involved sites: a plan's CheckMicros — the work it ships
// to peer sites for assistant checking — is added w times to its response
// prediction, so when any involved peer is open or half-open, check-light
// plans (BL over PL, CA over both) win sooner. With no degraded site the
// weight is 0 and the winner is the lowest (response, total).
func Rank(ests []Estimate, sites []object.SiteID, health map[object.SiteID]string) (Estimate, map[exec.Algorithm]float64) {
	w := 0.0
	for _, site := range sites {
		switch severity(health[site]) {
		case 2:
			w = penaltyOpen
		case 1:
			// A replica whose mappings diverged ("suspect(C1,...)", from the
			// anti-entropy tracker) is reachable but unconfirmed — the same
			// caution as a half-open breaker: prefer check-light plans.
			w = max(w, penaltyHalfOpen)
		}
		if w == penaltyOpen {
			break
		}
	}
	penalized := make(map[exec.Algorithm]float64, len(ests))
	var best Estimate
	bestScore := 0.0
	for i, est := range ests {
		score := est.ResponseMicros + w*est.CheckMicros
		penalized[est.Alg] = score
		if i == 0 || score < bestScore ||
			(score == bestScore && est.TotalMicros < best.TotalMicros) {
			best, bestScore = est, score
		}
	}
	return best, penalized
}

func severity(state string) int {
	switch {
	case state == "open":
		return 2
	case state == "half-open", strings.HasPrefix(state, "suspect"):
		return 1
	default:
		return 0
	}
}
