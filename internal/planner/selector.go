package planner

import (
	"sync"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/trace"
)

// Decision records one choice for introspection (EXPLAIN).
type Decision struct {
	// Alg is the chosen strategy.
	Alg exec.Algorithm
	// Estimates are the calibrated predictions the choice ranked, in
	// exec.Algorithms() order.
	Estimates []Estimate
}

// Selector is the one strategy chooser: it prices CA/BL/PL from the catalog
// at per-site rates calibrated from finished queries' profiles, and picks
// the cheapest. A selector that has observed nothing charges every site
// Table 1's rates, so its choice is the static planner's. It implements
// exec.Selector and is safe for concurrent use.
type Selector struct {
	cat *Catalog
	cal *calibrator

	mu   sync.Mutex
	last *Decision
}

var _ exec.Selector = (*Selector)(nil)

// NewSelector builds a selector choosing over the given catalog for queries
// the site coord coordinates.
func NewSelector(cat *Catalog, coord object.SiteID) *Selector {
	return &Selector{cat: cat, cal: newCalibrator(coord)}
}

// Estimate predicts the costs of CA, BL and PL for a bound query at the
// calibrated per-site rates, ordered as exec.Algorithms().
func (s *Selector) Estimate(b *query.Bound) []Estimate {
	e := estimator{cat: s.cat, b: b, cal: s.cal}
	return []Estimate{e.ca(), e.localized(exec.BL), e.localized(exec.PL)}
}

// Select implements exec.Selector: estimate CA/BL/PL and return the
// cheapest.
func (s *Selector) Select(b *query.Bound) exec.Algorithm {
	ests := s.Estimate(b)
	best := rank(ests)

	s.mu.Lock()
	s.last = &Decision{Alg: best.Alg, Estimates: ests}
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

// rank returns the estimate with the lowest predicted response time; ties
// go to the lower total, then to the earlier estimate.
func rank(ests []Estimate) Estimate {
	best := ests[0]
	for _, est := range ests[1:] {
		if est.ResponseMicros < best.ResponseMicros ||
			(est.ResponseMicros == best.ResponseMicros && est.TotalMicros < best.TotalMicros) {
			best = est
		}
	}
	return best
}
