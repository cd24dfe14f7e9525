package exec

import (
	"context"
	"errors"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
)

// Gate is the federation's one admission control: a counting semaphore
// bounding how many queries a global processing site executes at once over
// the shared site state, whatever the transport. Queries beyond the bound
// queue FIFO-ish on the channel; a nil Gate (bound <= 0) admits everything
// immediately.
//
// The gate observes four instruments on the registry:
//
//	queries_inflight{site}       gauge   queries currently admitted
//	queries_queued_total{site}   counter admissions that had to wait
//	queries_shed_total{site}     counter admissions turned away (deadline
//	                                     expired or caller gone pre-slot)
//	admission_wait_us{site,alg}  histogram wall-clock wait for a slot
type Gate struct {
	slots chan struct{}
	reg   *metrics.Registry
	site  string
}

// NewGate builds a gate admitting at most max queries at once; max <= 0
// returns nil, which enter treats as an unbounded pass-through — callers
// get a cheap always-admit path.
func NewGate(max int, reg *metrics.Registry, site string) *Gate {
	if max <= 0 {
		return nil
	}
	return &Gate{slots: make(chan struct{}, max), reg: reg, site: site}
}

// enter blocks until the query is admitted, the context expires, or the
// caller goes away. On admission it returns the release function together
// with the microseconds this admission waited (0 when admitted immediately)
// — the per-query profile records the wait. On a done context it sheds: the
// query never gets a slot and the typed error says why (ErrShed for an
// expired deadline, ErrCanceled for a vanished caller). Safe on a nil gate,
// which admits everything — an unbounded engine has nothing to shed; the
// run itself unwinds at its first checkpoint.
func (g *Gate) enter(ctx context.Context, alg string) (func(), int64, error) {
	if g == nil {
		return func() {}, 0, nil
	}
	// Fail fast: a query that arrives already out of budget must not consume
	// a slot, not even instantaneously.
	if err := ctx.Err(); err != nil {
		return nil, 0, g.shed(err)
	}
	var waited int64
	select {
	case g.slots <- struct{}{}:
	default:
		// Full: this admission waits. Record the queuing and the wait —
		// including a wait that ends in shedding, so admission_wait_us shows
		// how long shed queries held out.
		g.reg.Counter("queries_queued_total", metrics.Labels{Site: g.site}).Inc()
		start := time.Now()
		var cause error
		select {
		case g.slots <- struct{}{}:
		case <-ctx.Done():
			cause = ctx.Err()
		}
		waited = time.Since(start).Microseconds()
		g.reg.Histogram("admission_wait_us", metrics.Labels{Site: g.site, Alg: alg}).
			Observe(float64(waited))
		if cause != nil {
			return nil, waited, g.shed(cause)
		}
	}
	inflight := g.reg.Gauge("queries_inflight", metrics.Labels{Site: g.site})
	inflight.Add(1)
	return func() {
		inflight.Add(-1)
		<-g.slots
	}, waited, nil
}

// shed counts the turn-away and types the cause.
func (g *Gate) shed(cause error) error {
	g.reg.Counter("queries_shed_total", metrics.Labels{Site: g.site}).Inc()
	if errors.Is(cause, context.DeadlineExceeded) {
		return ErrShed
	}
	return ErrCanceled
}
