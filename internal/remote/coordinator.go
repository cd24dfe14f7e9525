package remote

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/tvl"
)

// Coordinator executes global queries against a cluster of site servers:
// the networked counterpart of the exec engine's global processing site.
type Coordinator struct {
	// ID names the global processing site.
	ID object.SiteID
	// Global is the integrated global schema.
	Global *schema.Global
	// Tables is the coordinator's replica of the GOid mapping tables.
	Tables *gmap.Tables
	// Sites maps component sites to their server addresses.
	Sites map[object.SiteID]string
	// Matcher, when set, makes the coordinator the mapping authority for
	// Insert: it assigns GOids to new objects and its tables back the
	// coordinator's certification. Wire Tables to Matcher.Tables().
	Matcher *isomer.Matcher
	// Tracer, when non-nil, records each query as a span tree whose per-site
	// RPC spans carry the IDs propagated to the servers.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives query counters, latency histograms,
	// and per-site-pair byte accounting as seen from the coordinator.
	Metrics *metrics.Registry
	// Recorder, when non-nil, receives a trace.Profile per executed query —
	// the coordinator's flight recorder. Requires Tracer; the profile's
	// spans cover every site that answered (servers ship their spans back
	// with traced responses).
	Recorder *obs.Recorder
	// Selector, when non-nil, resolves exec.Adaptive to a concrete strategy
	// per query and is fed every finished query's profile — the calibration
	// loop, closed over the wire: the servers stamp their measured work onto
	// the spans they ship back, and the selector's health source is typically
	// this coordinator's BreakerStates.
	Selector exec.Selector
	// Log, when non-nil, receives structured query logs.
	Log *slog.Logger
	// Call is the networking policy for site calls: timeouts, retries,
	// pooling, circuit breakers. Zero fields take DefaultCallConfig values.
	Call CallConfig
	// MaxConcurrent bounds the queries executing at once (admission
	// control); calls beyond the bound wait for a slot. Zero or negative
	// means unbounded. Read at the first Query; set before serving.
	MaxConcurrent int
	// Deadline, when positive, caps every query's end-to-end time.
	// QueryContext applies it only when the caller's context carries no
	// deadline of its own. An over-deadline query returns its sound partial
	// answer with Answer.Outcome = OutcomeDeadline.
	Deadline time.Duration
	// DeltaLog, when set, makes Insert's bind deltas durable: every
	// assigned binding is appended to the log before broadcast, and a
	// replica whose pending-delta queue overflows is rebuilt by replaying
	// the gap from the log on the next successful Ping instead of losing
	// the dropped deltas. Typically a *wal.Engine opened with OpenLog.
	DeltaLog DeltaLog
	// AntiEntropy configures the coordinator's replica-repair loop: the
	// cadence of StartAntiEntropy's background rounds. The zero value
	// disables the loop; rounds can still be run on demand.
	AntiEntropy AntiEntropyConfig

	// mu guards Tables (and the Matcher behind it) between concurrent
	// Query and Insert calls.
	mu   sync.RWMutex
	qseq atomic.Uint64

	// clMu guards the lazily-built pooled site-call client. Not a
	// sync.Once: Close must be idempotent and allocation-free when no
	// client was ever built, and a post-Close call must build a FRESH
	// client rather than reuse the closed one.
	clMu sync.Mutex
	cl   *client

	gateOnce sync.Once
	gate     *exec.Gate

	// resyncMu guards the pending-delta queues and rebuild marks: bind
	// deltas a replica missed (failed broadcast) are re-sent on the next
	// successful Ping; a peer whose queue overflowed is marked for a
	// log rebuild instead.
	resyncMu    sync.Mutex
	resync      map[object.SiteID][]pendingDelta
	rebuildFrom map[object.SiteID]uint64

	// repMu guards the lazily-built mapping-table replica (replica.go).
	// Lazy for the same reason as the client: the zero-value-plus-fields
	// construction pattern, with Tables often populated after the struct
	// literal.
	repMu sync.Mutex
	rep   *replica

	// peerOpMu guards peerOps, the per-peer serialization locks. Resync
	// replay (Ping) and anti-entropy repair both stream bindings to a
	// peer; interleaving them against the SAME peer could re-deliver a
	// delta around a repair that already converged it and double-charge
	// repair accounting, so each peer's maintenance traffic runs one
	// stream at a time. Different peers proceed in parallel.
	peerOpMu sync.Mutex
	peerOps  map[object.SiteID]*sync.Mutex
}

// DeltaLog is the durable bind-delta log behind the coordinator's replica
// resync: AppendBind persists one binding and returns its log sequence
// number; ReplayBinds streams every persisted binding with sequence >= from
// in log order. *wal.Engine implements it.
type DeltaLog interface {
	AppendBind(class string, goid object.GOid, site object.SiteID, loid object.LOid) (uint64, error)
	ReplayBinds(from uint64, fn func(class string, goid object.GOid, site object.SiteID, loid object.LOid) error) error
}

// pendingDelta is one queued resync entry: the delta plus its DeltaLog
// sequence (0 when no log is configured).
type pendingDelta struct {
	delta *BindDelta
	seq   uint64
}

// maxPendingDeltas bounds each peer's pending-delta resync queue; beyond
// it the peer is marked needs-rebuild. With a DeltaLog the whole gap is
// replayed from the log on the next Ping; without one the oldest deltas
// are dropped (replica_resync_dropped_total) and the mark stays until an
// operator re-seeds the replica.
const maxPendingDeltas = 256

// client lazily builds the coordinator's pooled site-call client so the
// zero-value-plus-fields construction pattern keeps working. After Close
// it builds a fresh client.
func (c *Coordinator) client() *client {
	c.clMu.Lock()
	defer c.clMu.Unlock()
	if c.cl == nil {
		c.cl = newClient(c.ID, c.Call, c.Metrics)
	}
	return c.cl
}

// Close releases the coordinator's pooled connections. It is idempotent
// and allocation-free when no client was ever built, and the coordinator
// remains usable afterwards: the next call builds a fresh client.
func (c *Coordinator) Close() {
	c.clMu.Lock()
	cl := c.cl
	c.cl = nil
	c.clMu.Unlock()
	if cl != nil {
		cl.close()
	}
}

// BreakerStates reports each site's circuit-breaker state as seen from the
// coordinator, for the health surface.
func (c *Coordinator) BreakerStates() map[object.SiteID]string {
	return c.client().BreakerStates()
}

// replica lazily builds the coordinator's replica over Tables, its digest
// seeded from what they hold and — with a DeltaLog — every binding appended
// to the log before it is applied. It takes c.mu.RLock on first use, so
// callers must NOT hold c.mu — fetch the replica before locking.
func (c *Coordinator) replica() *replica {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	if c.rep == nil {
		var persist bindLog
		if c.DeltaLog != nil {
			persist = c.DeltaLog.AppendBind
		}
		c.rep = newReplica(c.ID, c.Tables, &c.mu, persist, c.Metrics, c.Log)
	}
	return c.rep
}

// Tracker exposes the coordinator's divergence tracker (health surfaces,
// tests). Its Health() map, prefixed "antientropy", is the /healthz
// condition hetops reads the repair column from.
func (c *Coordinator) Tracker() *antientropy.Tracker { return c.replica().tracker }

// peerLock serializes maintenance streams (resync replay, anti-entropy
// repair) against one peer; different peers proceed in parallel. Returns
// the unlock.
func (c *Coordinator) peerLock(peer object.SiteID) func() {
	c.peerOpMu.Lock()
	if c.peerOps == nil {
		c.peerOps = make(map[object.SiteID]*sync.Mutex)
	}
	m := c.peerOps[peer]
	if m == nil {
		m = new(sync.Mutex)
		c.peerOps[peer] = m
	}
	c.peerOpMu.Unlock()
	m.Lock()
	return m.Unlock
}

// RunAntiEntropyRound runs one digest-exchange round against every site and
// returns the number of divergent classes found. The coordinator is the
// mapping authority, so its replica usually leads — but after a restart
// from a stale log, repair pulls the bindings the sites kept and the
// coordinator lost. Pulled bindings are appended to the DeltaLog (when
// configured) so future rebuild replays stay complete; they do NOT update
// the Matcher's entity-key index, so a pulled entity matches by GOid but
// not yet by key until re-seeded (documented limitation).
func (c *Coordinator) RunAntiEntropyRound(ctx context.Context) int {
	return c.replica().round(ctx, c.client(), c.Sites, c.peerLock)
}

// StartAntiEntropy launches the background repair loop on the configured
// cadence (AntiEntropy.Interval; zero or negative is a no-op) and returns
// its stop function. Stop before Close.
func (c *Coordinator) StartAntiEntropy() (stop func()) {
	if c.AntiEntropy.Interval <= 0 {
		return func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		repairLoop(ctx, c.AntiEntropy.Interval, c.RunAntiEntropyRound)
	}()
	return func() {
		cancel()
		<-done
	}
}

// DivergenceStates reports the coordinator's suspect classes for the
// health surface: class → suspicion reason. Converged classes are absent.
func (c *Coordinator) DivergenceStates() map[string]string {
	return c.replica().tracker.SuspectReasons()
}

// qidTag distinguishes this process's query IDs. Query IDs scope spans at
// the *servers*, which outlive coordinator processes: if every coordinator
// run minted "rq1", a site's /debug/trace/last would conflate the last
// queries of different runs into one tree.
var qidTag = rand.Uint32() & 0xffffff

// pingTimeout bounds one ping exchange: a liveness probe needs a tight
// deadline, not the query-sized call timeout.
const pingTimeout = 2 * time.Second

// Ping probes every site server in parallel under a bounded deadline and
// reports ALL unreachable sites in one error (site order), so an operator
// sees the whole outage instead of one site per invocation.
func (c *Coordinator) Ping() error {
	cl := c.client()
	return c.eachSite(func(site object.SiteID, addr string) error {
		req := Request{Kind: kindPing, Trace: TraceContext{From: c.ID}}
		if _, _, err := cl.callTimeout(context.Background(), site, addr, req, pingTimeout); err != nil {
			return fmt.Errorf("remote: site %s unreachable: %w", site, err)
		}
		// The site answered: if its replica missed bind deltas while it
		// was down, bring it back in sync now.
		c.replayResync(site)
		return nil
	})
}

// eachSite runs fn for every site in parallel and joins the errors in site
// order. Every site is attempted whatever the others return.
func (c *Coordinator) eachSite(fn func(site object.SiteID, addr string) error) error {
	sites := sortedKeys(c.Sites)
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	for i, site := range sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(site, c.Sites[site])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Query parses, binds and executes a global query under the given strategy
// across the cluster, returning the answer and the wall-clock time spent.
// Equivalent to QueryContext with context.Background().
func (c *Coordinator) Query(text string, alg exec.Algorithm) (*federation.Answer, time.Duration, error) {
	return c.QueryContext(context.Background(), text, alg)
}

// QueryContext is Query under a caller context. The strategies and the
// query lifecycle are exec.Runner's, shared with the in-process engine — see
// Runner.Run for admission, shedding and the sound partial answer an
// interrupted query returns. This method binds the text, hands the runner
// the TCP implementation of the site operations, and logs. Over TCP the
// deadline travels to every site as a remaining-budget stamp on each
// request, and cancellation cuts in-flight exchanges.
func (c *Coordinator) QueryContext(ctx context.Context, text string, alg exec.Algorithm) (*federation.Answer, time.Duration, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, 0, err
	}
	b, err := query.Bind(q, c.Global)
	if err != nil {
		return nil, 0, err
	}
	c.gateOnce.Do(func() { c.gate = exec.NewGate(c.MaxConcurrent, c.Metrics, string(c.ID)) })
	run := exec.Runner{
		Coord: federation.NewCoordinator(c.ID, c.Global, c.Tables),
		Ops:   siteCalls{c: c, cl: c.client(), text: text},
		// c.mu is held only around Materialize/Evaluate/Certify, never
		// across the fan-out.
		State:    c.mu.RLocker(),
		Tracer:   c.Tracer,
		Metrics:  c.Metrics,
		Recorder: c.Recorder,
		Selector: c.Selector,
		Gate:     c.gate,
		Deadline: c.Deadline,
		Suspect:  c.replica().tracker.SuspectOf,
	}
	qid := fmt.Sprintf("rq%d-%06x", c.qseq.Add(1), qidTag)
	ans, m, err := run.Run(ctx, fabric.NewReal(fabric.DefaultRates()), qid, alg, b)
	d := time.Duration(m.ResponseMicros * float64(time.Microsecond))
	c.logQuery(qid, alg, ans, d, err)
	return ans, d, err
}

// logQuery writes the query's structured log entry. Queries turned away at
// the admission gate are not logged: under overload that would be a line
// per shed request.
func (c *Coordinator) logQuery(qid string, alg exec.Algorithm, ans *federation.Answer, d time.Duration, err error) {
	if c.Log == nil || errors.Is(err, exec.ErrShed) || errors.Is(err, exec.ErrCanceled) {
		return
	}
	attrs := []slog.Attr{
		slog.String("query", qid),
		slog.String("alg", alg.String()),
		slog.Float64("us", float64(d.Nanoseconds())/1e3),
	}
	if ans != nil {
		attrs = append(attrs,
			slog.Int("certain", len(ans.Certain)),
			slog.Int("maybe", len(ans.Maybe)),
			slog.Int("certified", ans.Stats.Certified),
			slog.Int("eliminated", ans.Stats.Eliminated))
		if ans.Degraded {
			downs := make([]string, len(ans.Unavailable))
			for i, f := range ans.Unavailable {
				downs[i] = f.String()
			}
			attrs = append(attrs, slog.Any("unavailable", downs))
		}
	}
	if err != nil {
		attrs = append(attrs, slog.String("err", err.Error()))
		c.Log.LogAttrs(context.Background(), slog.LevelError, "query failed", attrs...)
		return
	}
	c.Log.LogAttrs(context.Background(), slog.LevelInfo, "query done", attrs...)
}

// Insert stores a new object at a component site and maintains the
// replicated GOid mapping tables: the coordinator (mapping authority)
// matches the object against existing entities, binds it, and broadcasts
// the binding delta to every site replica. Distributed atomicity is out of
// scope, as the paper defers replicated-data management to the underlying
// mechanism: a failed broadcast leaves replicas stale (resync and
// anti-entropy close that gap), and a binding the authority could not log
// leaves the object stored in step 1 at its site unbound — it answers
// queries under its synthetic singleton GOid (gmap.Table.Unbound) and no
// compensating delete is sent.
func (c *Coordinator) Insert(site object.SiteID, o *object.Object) (object.GOid, error) {
	if c.Matcher == nil {
		return "", fmt.Errorf("remote: coordinator has no mapping authority (Matcher)")
	}
	addr, ok := c.Sites[site]
	if !ok {
		return "", fmt.Errorf("remote: no address for site %s", site)
	}
	if c.Global.GlobalFor(site, o.Class) == nil {
		return "", fmt.Errorf("remote: class %s@%s is not integrated", o.Class, site)
	}

	// 1. Store at the owning site.
	cl := c.client()
	rep := c.replica() // before c.mu: the lazy seed takes c.mu.RLock
	if _, _, err := cl.call(site, addr, Request{Kind: kindStore, Store: o, Trace: TraceContext{From: c.ID}}); err != nil {
		return "", err
	}
	// 2. Assign the GOid (entity match by key) and apply the binding to the
	// authority's replica: logged, then bound, then observed, under the one
	// lock, so a concurrent append's snapshot never reads a half-updated
	// table and a failed append leaves table and digest as they were.
	c.mu.Lock()
	class, goid, err := c.Matcher.Assign(site, o.Class, o)
	var seq uint64
	if err == nil {
		_, seq, err = rep.apply(class, antientropy.Binding{GOid: goid, Site: site, LOid: o.LOid})
	}
	c.mu.Unlock()
	if err != nil {
		return "", err
	}
	// 3. Broadcast the delta to every replica. Every site is attempted even
	// after a failure — stopping at the first stale replica would leave the
	// remaining healthy replicas stale too. The aggregate error names every
	// replica that missed the delta.
	delta := &BindDelta{Class: class, GOid: goid, Site: site, LOid: o.LOid}
	return goid, c.eachSite(func(peer object.SiteID, addr string) error {
		_, _, err := cl.call(peer, addr, Request{Kind: kindBind, Bind: delta, Trace: TraceContext{From: c.ID}})
		if err != nil {
			c.Metrics.Counter("replica_stale_total",
				metrics.Labels{Site: string(c.ID), Peer: string(peer)}).Inc()
			c.queueResync(peer, delta, seq)
			err = fmt.Errorf("remote: replica at %s is stale: %w", peer, err)
		}
		return err
	})
}

// queueResync remembers a bind delta a replica missed (its broadcast
// failed) so the next successful Ping can replay it.
func (c *Coordinator) queueResync(peer object.SiteID, delta *BindDelta, seq uint64) {
	c.resyncMu.Lock()
	defer c.resyncMu.Unlock()
	c.setResyncLocked(peer, append(c.resync[peer], pendingDelta{delta: delta, seq: seq}))
}

// setResyncLocked installs q as the peer's pending-delta queue under the
// maxPendingDeltas overflow rule; the needs-rebuild mark surfaces on
// /healthz via ResyncStates. With a DeltaLog the queue is released: the log
// holds everything from the oldest queued sequence on. Caller holds resyncMu.
func (c *Coordinator) setResyncLocked(peer object.SiteID, q []pendingDelta) {
	if c.resync == nil {
		c.resync = make(map[object.SiteID][]pendingDelta)
	}
	if drop := len(q) - maxPendingDeltas; drop > 0 {
		if c.DeltaLog != nil {
			c.markRebuildLocked(peer, q[0].seq)
			q = nil
		} else {
			c.markRebuildLocked(peer, 0)
			q = append([]pendingDelta(nil), q[drop:]...)
			c.Metrics.Counter("replica_resync_dropped_total",
				metrics.Labels{Site: string(c.ID), Peer: string(peer)}).Add(int64(drop))
		}
	}
	c.resync[peer] = q
}

// markRebuildLocked flags a peer as needing a rebuild from the given log
// sequence (keeping the earliest when marked repeatedly). Caller holds
// resyncMu.
func (c *Coordinator) markRebuildLocked(peer object.SiteID, seq uint64) {
	if c.rebuildFrom == nil {
		c.rebuildFrom = make(map[object.SiteID]uint64)
	}
	if cur, ok := c.rebuildFrom[peer]; !ok || seq < cur {
		c.rebuildFrom[peer] = seq
	}
	c.Metrics.Gauge("replica_needs_rebuild",
		metrics.Labels{Site: string(c.ID), Peer: string(peer)}).Set(1)
}

// replayResync brings a reachable peer's replica back in sync. A peer
// marked needs-rebuild is replayed from the durable log first (the whole
// gap since the oldest lost delta); then the in-memory pending queue is
// re-sent in order. Replicas apply exact-duplicate binds idempotently, so
// overlap between log replay and queued deltas is harmless. A delta that
// fails again puts itself and everything after it back at the front of the
// queue (preserving order against deltas queued meanwhile) for the next
// Ping to retry; a failed rebuild keeps the rebuild mark.
//
// The whole replay holds the peer's maintenance lock, so it never
// interleaves with an anti-entropy repair stream to the same peer.
func (c *Coordinator) replayResync(peer object.SiteID) {
	defer c.peerLock(peer)()
	c.resyncMu.Lock()
	pending := c.resync[peer]
	delete(c.resync, peer)
	rebuildSeq, rebuild := c.rebuildFrom[peer]
	if rebuild && c.DeltaLog != nil {
		delete(c.rebuildFrom, peer)
	}
	c.resyncMu.Unlock()
	if len(pending) == 0 && !rebuild {
		return
	}
	addr, ok := c.Sites[peer]
	if !ok {
		return
	}
	cl := c.client()
	labels := metrics.Labels{Site: string(c.ID), Peer: string(peer)}

	if rebuild && c.DeltaLog != nil {
		err := c.DeltaLog.ReplayBinds(rebuildSeq, func(class string, goid object.GOid, site object.SiteID, loid object.LOid) error {
			d := &BindDelta{Class: class, GOid: goid, Site: site, LOid: loid}
			if _, _, err := cl.call(peer, addr, Request{Kind: kindBind, Bind: d, Trace: TraceContext{From: c.ID}}); err != nil {
				return err
			}
			c.Metrics.Counter("replica_resync_total", labels).Inc()
			return nil
		})
		if err != nil {
			// Put everything back for the next Ping: the rebuild mark and
			// any deltas queued meanwhile.
			c.resyncMu.Lock()
			c.markRebuildLocked(peer, rebuildSeq)
			c.resync[peer] = append(pending, c.resync[peer]...)
			c.resyncMu.Unlock()
			return
		}
		c.Metrics.Counter("replica_rebuild_total", labels).Inc()
		c.Metrics.Gauge("replica_needs_rebuild", labels).Set(0)
		// The log covered every sequence from rebuildSeq through its tail,
		// which includes all queued deltas (their sequences were assigned
		// before they could be queued); nothing left to re-send.
		pending = nil
	}

	for i, pd := range pending {
		if _, _, err := cl.call(peer, addr, Request{Kind: kindBind, Bind: pd.delta, Trace: TraceContext{From: c.ID}}); err != nil {
			c.resyncMu.Lock()
			c.setResyncLocked(peer, append(append([]pendingDelta(nil), pending[i:]...), c.resync[peer]...))
			c.resyncMu.Unlock()
			return
		}
		c.Metrics.Counter("replica_resync_total", labels).Inc()
	}
}

// ResyncStates reports each out-of-sync replica's condition for the health
// surface: "needs-rebuild" for peers whose pending-delta queue overflowed,
// "pending(N)" for peers with N deltas awaiting replay. In-sync peers are
// absent.
func (c *Coordinator) ResyncStates() map[object.SiteID]string {
	c.resyncMu.Lock()
	defer c.resyncMu.Unlock()
	out := make(map[object.SiteID]string)
	for peer, q := range c.resync {
		if len(q) > 0 {
			out[peer] = fmt.Sprintf("pending(%d)", len(q))
		}
	}
	for peer := range c.rebuildFrom {
		out[peer] = "needs-rebuild"
	}
	return out
}

// siteCalls is the TCP implementation of exec.SiteOps for one query: each
// site-bound step is one pooled client RPC carrying the query text. A site
// absent from the address map entirely (killed and unwired) is unavailable
// exactly like one that stopped answering; transport failures (dead sites,
// open breakers) are SiteErrors, which degrade; an error a site answered
// (bad query) is deterministic and propagates.
type siteCalls struct {
	c    *Coordinator
	cl   *client
	text string
}

// call performs one exchange under its own child span of parent, whose ID
// the server adopts as the parent of its serve span; the site's spans (and
// any peer check spans it forwarded) are stitched into the coordinator's
// query tree, and wire bytes are accounted per site pair in both directions
// as seen from the coordinator.
func (s siteCalls) call(p fabric.Proc, q *exec.Query, parent trace.SpanID, site object.SiteID, req Request) (Response, error) {
	c := s.c
	addr, ok := c.Sites[site]
	if !ok {
		return Response{}, &SiteError{Site: site, Err: errPeerNotWired}
	}
	alg := q.Alg.String()
	sp := c.Tracer.StartSpan(parent, c.ID, "rpc:"+req.Kind).WithQuery(q.ID, alg)
	req.Query = s.text
	req.Trace = TraceContext{QueryID: q.ID, Alg: alg, Span: uint64(sp.ID()), From: c.ID}
	resp, w, err := s.cl.callCtx(p.Context(), site, addr, req)
	sp.Add("sent_bytes", w.Sent).Add("recv_bytes", w.Received).Detailf("site %s", site)
	if err != nil {
		sp.Detailf("failed: %v", err)
	} else {
		c.Tracer.Import(resp.Spans)
	}
	sp.End()
	c.Metrics.Counter("net_bytes_total",
		metrics.Labels{Site: string(c.ID), Peer: string(site), Alg: alg}).Add(w.Sent)
	c.Metrics.Counter("net_bytes_total",
		metrics.Labels{Site: string(site), Peer: string(c.ID), Alg: alg}).Add(w.Received)
	return resp, err
}

// Retrieve implements exec.SiteOps.
func (s siteCalls) Retrieve(p fabric.Proc, q *exec.Query, parent trace.SpanID, site object.SiteID) (federation.RetrieveReply, []string, error) {
	resp, err := s.call(p, q, parent, site, Request{Kind: kindRetrieve})
	return resp.Retrieve, resp.Suspect, err
}

// Local implements exec.SiteOps: the server runs exec.SiteFlow. The reply is
// checked against the query before it leaves the transport: certification
// indexes per-predicate evidence with the numbers in it.
func (s siteCalls) Local(p fabric.Proc, q *exec.Query, parent trace.SpanID, site object.SiteID) (LocalReply, []string, error) {
	resp, err := s.call(p, q, parent, site, Request{Kind: kindLocal, Mode: q.Alg.String()})
	if err == nil {
		if err = checkLocalReply(q.Bound, &resp.Local); err != nil {
			return LocalReply{}, nil, fmt.Errorf("remote: site %s sent a malformed local reply: %w", site, err)
		}
	}
	return resp.Local, resp.Suspect, err
}

// checkLocalReply refuses a decoded local reply that does not fit the query
// it answers: a row must carry one valid verdict per predicate and no more
// targets than the query has, every unsolved item must name one of the
// query's own points — the coordinator binds the same text, so it holds the
// point a site means — and every check verdict a predicate and a suffix
// length inside that predicate's path. The codec vouches for the bytes, not
// for the numbers in them.
func checkLocalReply(b *query.Bound, reply *LocalReply) error {
	// The frame's points already compared; a reply's items share a handful.
	var compared [16]*query.Point
	known := compared[:0]
	checkPoint := func(pt *query.Point) error {
		if pt == nil {
			return errors.New("unsolved item without a point")
		}
		if slices.Contains(known, pt) {
			return nil
		}
		if pt.SourceIdx < 0 || pt.SourceIdx >= len(b.Preds) {
			return fmt.Errorf("unsolved item: SourceIdx %d, query has %d predicates", pt.SourceIdx, len(b.Preds))
		}
		pred := &b.Preds[pt.SourceIdx]
		depth := len(pred.Path) - len(pt.Suffix.Path)
		if depth < 0 || depth >= len(pred.Path) {
			return fmt.Errorf("unsolved item: suffix %q of predicate %d has %d steps, its path %d",
				pt.Suffix, pt.SourceIdx, len(pt.Suffix.Path), len(pred.Path))
		}
		if own := pred.Point(depth); pt.ItemClass != own.ItemClass || !pt.Suffix.Equal(own.Suffix) {
			return fmt.Errorf("unsolved item: point %s(%s) is not predicate %d at depth %d, %s(%s)",
				pt.ItemClass, pt.Suffix, pt.SourceIdx, depth, own.ItemClass, own.Suffix)
		}
		if len(known) < cap(known) {
			known = append(known, pt)
		}
		return nil
	}
	validTruth := func(v tvl.Truth) bool { return v >= tvl.False && v <= tvl.True }
	checkVerdicts := func(vs []federation.CheckVerdict) error {
		for i := range vs {
			cv := &vs[i]
			switch {
			case cv.SourceIdx < 0 || cv.SourceIdx >= len(b.Preds):
				return fmt.Errorf("check verdict: SourceIdx %d, query has %d predicates", cv.SourceIdx, len(b.Preds))
			case cv.SuffixLen < 1 || cv.SuffixLen > len(b.Preds[cv.SourceIdx].Path):
				return fmt.Errorf("check verdict: SuffixLen %d, predicate %d has %d steps",
					cv.SuffixLen, cv.SourceIdx, len(b.Preds[cv.SourceIdx].Path))
			case !validTruth(cv.Verdict):
				return fmt.Errorf("check verdict: truth value %d", cv.Verdict)
			}
		}
		return nil
	}

	for i := range reply.Result.Rows {
		row := &reply.Result.Rows[i]
		if len(row.Verdicts) != len(b.Preds) {
			return fmt.Errorf("row %s: %d verdicts, query has %d predicates", row.GOid, len(row.Verdicts), len(b.Preds))
		}
		for _, v := range row.Verdicts {
			if !validTruth(v) {
				return fmt.Errorf("row %s: verdict with truth value %d", row.GOid, v)
			}
		}
		if len(row.Targets) > len(b.Targets) {
			return fmt.Errorf("row %s: %d targets, query has %d", row.GOid, len(row.Targets), len(b.Targets))
		}
		for j := range row.Unsolved {
			if err := checkPoint(row.Unsolved[j].Point); err != nil {
				return fmt.Errorf("row %s: %w", row.GOid, err)
			}
		}
	}
	if err := checkVerdicts(reply.Result.SigVerdicts); err != nil {
		return err
	}
	for i := range reply.CheckReplies {
		if err := checkVerdicts(reply.CheckReplies[i].Verdicts); err != nil {
			return err
		}
	}
	return nil
}
