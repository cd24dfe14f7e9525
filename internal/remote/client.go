package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/trace"
)

// CallConfig is the client-side networking policy of a federation process:
// how calls time out, pool connections, and trip circuit breakers. Zero
// timeouts take DefaultCallConfig's values, but a zero BreakerThreshold turns
// the breaker off: the zero value is DefaultCallConfig without a breaker.
// Timeouts are plain fields (not package globals) so concurrent coordinators
// and tests can run different policies without racing.
type CallConfig struct {
	// DialTimeout bounds connection establishment to a peer.
	DialTimeout time.Duration
	// CallTimeout bounds one full request/response exchange: a dead or
	// wedged peer fails the call instead of hanging it forever.
	CallTimeout time.Duration
	// BreakerThreshold is the run of consecutive call failures that opens
	// a site's circuit breaker; 0 disables the breaker.
	BreakerThreshold int
	// Faults, when set, injects network faults into real-TCP calls: a
	// partitioned or dropped link fails the call before dialing (the
	// partitioned peer is unreachable even though its process is alive).
	// The same plan is normally shared with the peers' ServerConfig.Faults
	// so both directions of an asymmetric cut are enforced.
	Faults *fabric.FaultPlan

	// Tests override the pool size and the breaker cooldown (0: the
	// constants).
	poolSize        int
	breakerCooldown time.Duration
}

const (
	// poolSize is the maximum number of idle pooled connections per site.
	poolSize = 4
	// breakerCooldown is how long an open breaker waits before admitting a
	// half-open probe.
	breakerCooldown = 5 * time.Second
)

// DefaultCallConfig returns the production policy: one exchange per call, a
// small warm-connection pool, and a breaker that fails fast after a run of
// failures.
func DefaultCallConfig() CallConfig {
	return CallConfig{
		DialTimeout:      5 * time.Second,
		CallTimeout:      60 * time.Second,
		BreakerThreshold: 5,
	}
}

// withDefaults fills unset timeouts from DefaultCallConfig.
func (c CallConfig) withDefaults() CallConfig {
	d := DefaultCallConfig()
	if c.DialTimeout <= 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = d.CallTimeout
	}
	c.poolSize = cmp.Or(c.poolSize, poolSize)
	c.breakerCooldown = cmp.Or(c.breakerCooldown, breakerCooldown)
	return c
}

// SiteError marks a transport-level failure reaching a site: dials,
// timeouts, torn connections, and open circuit breakers. Callers treat it
// as "site unavailable" — under the partial-answer semantics the query
// degrades instead of failing. Errors the site itself answered (bad query,
// unknown strategy) are NOT SiteErrors; they are deterministic and propagate.
type SiteError struct {
	Site object.SiteID
	Err  error
}

// Error implements error.
func (e *SiteError) Error() string {
	return fmt.Sprintf("remote: site %s unavailable: %v", e.Site, e.Err)
}

// Unwrap exposes the transport cause.
func (e *SiteError) Unwrap() error { return e.Err }

// Is classifies every SiteError as exec.ErrSiteUnavailable — what the
// strategies' shared fan-out classifier tests for.
func (e *SiteError) Is(target error) bool { return target == exec.ErrSiteUnavailable }

// client issues site calls for one federation process (a coordinator, or a
// server dispatching assistant checks) under one CallConfig: pooled
// connections and a per-site circuit breaker. Metrics (when a registry is
// wired) record failures, stale pooled connections, breaker transitions, and
// a per-site breaker-state gauge.
type client struct {
	cfg  CallConfig
	self object.SiteID
	reg  *metrics.Registry

	mu       sync.Mutex
	pools    map[string]*pool
	breakers map[object.SiteID]*breaker
}

func newClient(self object.SiteID, cfg CallConfig, reg *metrics.Registry) *client {
	return &client{
		cfg:      cfg.withDefaults(),
		self:     self,
		reg:      reg,
		pools:    make(map[string]*pool),
		breakers: make(map[object.SiteID]*breaker),
	}
}

func (cl *client) pool(addr string) *pool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	p := cl.pools[addr]
	if p == nil {
		p = newPool(addr, cl.cfg.DialTimeout, cl.cfg.poolSize)
		cl.pools[addr] = p
	}
	return p
}

func (cl *client) breaker(site object.SiteID) *breaker {
	if cl.cfg.BreakerThreshold <= 0 {
		return nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	b := cl.breakers[site]
	if b == nil {
		b = newBreaker(cl.cfg.BreakerThreshold, cl.cfg.breakerCooldown, func(from, to string) {
			cl.reg.Counter("breaker_transitions_total",
				metrics.Labels{Site: string(cl.self), Peer: string(site), Phase: to}).Inc()
			cl.reg.Gauge("breaker_state",
				metrics.Labels{Site: string(cl.self), Peer: string(site)}).Set(breakerStateValue(to))
		})
		cl.breakers[site] = b
	}
	return b
}

// breakerStateValue encodes a breaker state for the breaker_state gauge.
func breakerStateValue(state string) int64 {
	switch state {
	case BreakerOpen:
		return 2
	case BreakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// BreakerStates reports each peer's breaker state, keyed by site — the
// /healthz degradation surface. Sites that were never called are absent
// (implicitly closed).
func (cl *client) BreakerStates() map[object.SiteID]string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make(map[object.SiteID]string, len(cl.breakers))
	for site, b := range cl.breakers {
		out[site] = b.State()
	}
	return out
}

// close releases every pooled connection.
func (cl *client) close() {
	cl.mu.Lock()
	pools := cl.pools
	cl.pools = make(map[string]*pool)
	cl.mu.Unlock()
	for _, p := range pools {
		p.closeAll()
	}
}

// call performs one request/response exchange with the site server at addr,
// with breaker accounting. The context does three jobs:
//
//   - Budget on the wire: the remaining time until ctx's deadline is stamped
//     onto the request (Request.DeadlineMicros) as a relative duration, so
//     the server re-arms the budget on arrival regardless of clock skew.
//   - Exchange timeout: the exchange runs under the smaller of the
//     configured call timeout and the remaining budget — a 50ms budget never
//     waits out a 60s timeout.
//   - Cancellation: a dying context slams the in-flight connection's
//     deadline (see pconn.exchange). A call ended by its context returns the
//     ctx error (errors.Is-able against context.Canceled /
//     DeadlineExceeded) and does NOT charge the circuit breaker — the caller
//     going away says nothing about the peer's health.
//
// The exchange runs in this one frame, with req passed down by pointer: a
// fan-out leg decodes its reply below it, and a deeper chain grew the leg's
// fresh goroutine's stack once more per call (EXPERIMENTS.md E44). Legs now
// run on workers that keep their stacks (E45), so depth costs that once.
func (cl *client) call(ctx context.Context, site object.SiteID, addr string, req Request) (Response, wireStats, error) {
	// Injected network faults come first: a cut link makes the peer
	// unreachable for this caller regardless of breaker state, and the
	// failure must not dial (nothing crosses a partition).
	if fp := cl.cfg.Faults; !fp.BeginLinkOp(cl.self, site) {
		cl.reg.Counter("partition_blocked_total",
			metrics.Labels{Site: string(cl.self), Peer: string(site)}).Inc()
		return Response{}, wireStats{}, &SiteError{Site: site, Err: fmt.Errorf("%s: %s", addr, fp.LinkReason(cl.self, site))}
	}

	br := cl.breaker(site)
	probe := false
	if br != nil {
		var ok bool
		ok, probe = br.Allow()
		if !ok {
			cl.reg.Counter("breaker_fastfail_total",
				metrics.Labels{Site: string(cl.self), Peer: string(site)}).Inc()
			return Response{}, wireStats{}, &SiteError{Site: site, Err: fmt.Errorf("%w (%s)", ErrCircuitOpen, addr)}
		}
	}
	// ended releases a held half-open probe slot when the context ends the
	// call (its death says nothing about the peer, so neither Success nor
	// Failure applies) — without it the slot would leak and the breaker
	// could never probe this peer again.
	ended := func(err error) error {
		if probe {
			br.ProbeDone()
		}
		return fmt.Errorf("remote: call %s: %w", addr, err)
	}
	if err := ctx.Err(); err != nil {
		return Response{}, wireStats{}, ended(err)
	}
	// The exchange's timeout and wire budget come from the remaining
	// context budget (the tighter bound wins).
	t, budget := cl.cfg.CallTimeout, false
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return Response{}, wireStats{}, ended(context.DeadlineExceeded)
		}
		t, budget = min(t, rem), rem < t
		req.DeadlineMicros = rem.Microseconds() + 1
	}
	var stats wireStats
	// fail ends the call on a transport error. A failed call is not sent
	// again: an unreachable site is missing data, and the query's partial
	// answer says so.
	fail := func(err error) (Response, wireStats, error) {
		if budget && errors.Is(err, os.ErrDeadlineExceeded) {
			// The exchange ran out the context's own budget, and the
			// context's timer, due no later, may not have fired yet: wait
			// for it, so the call and its query both end as the context's.
			<-ctx.Done()
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The context tore it, not the peer: typed return, no breaker
			// charge.
			return Response{}, stats, ended(ctxErr)
		}
		if br != nil {
			br.Failure()
		}
		cl.reg.Counter("call_failures_total",
			metrics.Labels{Site: string(cl.self), Peer: string(site)}).Inc()
		return Response{}, stats, &SiteError{Site: site, Err: err}
	}
	p := cl.pool(addr)
	pc, pooled, err := p.get()
	if err != nil {
		return fail(err)
	}
	resp, stats, err := pc.exchange(ctx, &req, t)
	if err != nil && pooled && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		// A connection that idled in the pool across a peer restart is dead
		// on first use, which says nothing about the peer's current health:
		// discard it and redial once, for free. Not after a timeout or the
		// context's end, though: the peer may hold the request already, and
		// a second copy is a second store.
		pc.close()
		cl.reg.Counter("pool_stale_total",
			metrics.Labels{Site: string(cl.self), Peer: string(site)}).Inc()
		if pc, err = p.dial(); err != nil {
			return fail(err)
		}
		var w wireStats
		resp, w, err = pc.exchange(ctx, &req, t)
		stats.Sent += w.Sent
		stats.Received += w.Received
	}
	if err != nil {
		// The connection is torn; never reuse it.
		pc.close()
		return fail(fmt.Errorf("%s: %w", addr, err))
	}
	p.put(pc)
	if br != nil {
		br.Success()
	}
	switch resp.Err {
	case "":
		return resp, stats, nil
	case errDeadline:
		// The budget died on the server's side of the wire; same typed
		// error as if it had died here.
		return Response{}, stats, fmt.Errorf("remote: %s: %w", addr, context.DeadlineExceeded)
	case errUnavailable:
		// Injected fault: the site is "down" by decree; degrade like a
		// real outage.
		return Response{}, stats, &SiteError{Site: site, Err: errors.New(resp.Err)}
	default:
		// The site answered: it is alive, the request itself is bad.
		return Response{}, stats, fmt.Errorf("remote: %s: %s", addr, resp.Err)
	}
}

// errPeerNotWired marks a site with no entry in the address map. Wrapped in
// a SiteError it classifies as "site unavailable", so the dependent
// predicates degrade to maybe instead of failing the query.
var errPeerNotWired = errors.New("no address in peer wiring")

// checkLink is the TCP implementation of exec.SiteLink: one check RPC per
// target. The verdicts return here, to the requesting site, and travel to
// the global site with its local reply: the one topology difference from the
// paper's model, confined to this transport. The peer's serve span is
// parented on the step that dispatched the check, so the whole chain
// (coordinator → site → peer) renders as one query tree.
type checkLink struct{ s *Server }

// Check implements exec.SiteLink.
func (l checkLink) Check(p fabric.Proc, q *exec.Query, parent trace.SpanID, from, target object.SiteID, items []federation.CheckItem) (federation.CheckReply, error) {
	s, ctx, alg := l.s, p.Context(), q.Alg.String()
	tc := TraceContext{QueryID: q.ID, Alg: alg, Span: uint64(parent), From: from}
	addr, ok := s.peerAddr(target)
	if !ok {
		return federation.CheckReply{}, &SiteError{Site: target, Err: errPeerNotWired}
	}
	resp, w, err := s.client.call(ctx, target, addr, Request{Kind: kindCheck, Items: items, Trace: tc})
	s.cfg.Metrics.Counter("net_bytes_total",
		metrics.Labels{Site: string(from), Peer: string(target), Alg: alg}).Add(w.Sent)
	if err != nil {
		return federation.CheckReply{}, err
	}
	// Fold the peer's check spans into this site's tracer; they ship onward
	// to the coordinator with this site's own response.
	s.cfg.Tracer.Import(resp.Spans)
	return resp.Check, nil
}
