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
	// pooling, circuit breakers. Zero timeouts and Attempts take
	// DefaultCallConfig's values; a zero BreakerThreshold means no breaker.
	Call CallConfig
	// DeltaLog, when set, makes the coordinator's replica durable: a binding
	// Insert assigns or repair pulls is logged before it is applied, so a
	// restart over the recovered tables holds everything that was broadcast.
	// Typically a *wal.Engine opened with OpenLog.
	DeltaLog antientropy.DeltaLog
	// AntiEntropy is the cadence of StartAntiEntropy's background
	// replica-repair rounds. Zero disables the loop; rounds can still be run
	// on demand.
	AntiEntropy time.Duration

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

	// rtOnce guards the real fabric every query of this coordinator runs on.
	rtOnce sync.Once
	rt     *fabric.Real
	// plans keeps the queries bound so far; Global is fixed from the first.
	plans planTable

	// repMu guards the lazily-built mapping-table replica. Lazy for the same
	// reason as the client: the zero-value-plus-fields construction pattern,
	// with Tables often populated after the struct literal.
	repMu sync.Mutex
	rep   *antientropy.Replica
}

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

// runtime lazily builds the real fabric, once for the coordinator's life.
func (c *Coordinator) runtime() *fabric.Real {
	c.rtOnce.Do(func() { c.rt = fabric.NewReal(fabric.DefaultRates()) })
	return c.rt
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

// Replica returns the coordinator's mapping-table replica, built on first
// use over Tables, its digests seeded from what they hold and — with a
// DeltaLog — every binding appended to the log before it is applied. It takes
// c.mu.RLock on first use, so callers must NOT hold c.mu. Its Health(),
// prefixed "antientropy", is the /healthz condition the cluster rollup reads
// the repair column from.
func (c *Coordinator) Replica() *antientropy.Replica {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	if c.rep == nil {
		c.rep = antientropy.NewReplica(c.ID, c.Tables, &c.mu, c.DeltaLog, replicaSend(c.ID, c.client,
			func(site object.SiteID) (string, bool) { addr, ok := c.Sites[site]; return addr, ok }), c.Metrics, c.Log)
	}
	return c.rep
}

// RunAntiEntropyRound runs one digest-exchange round against every site and
// returns the number of divergent classes found. The coordinator is the
// mapping authority, so its replica usually leads — but after a restart
// from a stale log, repair pulls the bindings the sites kept and the
// coordinator lost. Pulled bindings are appended to the DeltaLog (when
// configured) like any other; they do NOT update the Matcher's entity-key
// index, so a pulled entity matches by GOid but not yet by key until
// re-seeded (documented limitation). A stale-marked site converges here as
// on Ping.
func (c *Coordinator) RunAntiEntropyRound(ctx context.Context) int {
	return c.Replica().Round(ctx, sortedKeys(c.Sites))
}

// StartAntiEntropy launches the background repair loop on the configured
// cadence (AntiEntropy; zero or negative is a no-op) and returns its stop
// function. Stop before Close.
func (c *Coordinator) StartAntiEntropy() (stop func()) {
	if c.AntiEntropy <= 0 {
		return func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		repairLoop(ctx, c.AntiEntropy, c.RunAntiEntropyRound)
	}()
	return func() {
		cancel()
		<-done
	}
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
// sees the whole outage instead of one site per invocation. A site that
// answers and is marked stale (it missed an Insert's bind broadcast) has its
// digest exchange run now; an unmarked site costs the one ping.
func (c *Coordinator) Ping() error {
	cl, rep := c.client(), c.Replica()
	return c.eachSite(func(site object.SiteID, addr string) error {
		req := Request{Kind: kindPing, Trace: TraceContext{From: c.ID}}
		if _, _, err := cl.callTimeout(context.Background(), site, addr, req, pingTimeout); err != nil {
			return fmt.Errorf("remote: site %s unreachable: %w", site, err)
		}
		rep.Sync(context.Background(), site)
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
// Runner.Run for the sound partial answer an interrupted query returns. The query's budget is ctx's: this method binds
// the text, hands the runner the TCP implementation of the site operations,
// and logs. Over TCP ctx's deadline travels to every site as a
// remaining-budget stamp on each request, and cancellation cuts in-flight
// exchanges.
func (c *Coordinator) QueryContext(ctx context.Context, text string, alg exec.Algorithm) (*federation.Answer, time.Duration, error) {
	b, err := c.plans.bind(text, c.Global)
	if err != nil {
		return nil, 0, err
	}
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
		Suspect:  c.Replica().SuspectOf,
	}
	qid := fmt.Sprintf("rq%d-%06x", c.qseq.Add(1), qidTag)
	ans, m, err := run.Run(ctx, c.runtime(), qid, alg, b)
	d := time.Duration(m.ResponseMicros * float64(time.Microsecond))
	c.logQuery(qid, alg, ans, d, err)
	return ans, d, err
}

// logQuery writes the query's structured log entry.
func (c *Coordinator) logQuery(qid string, alg exec.Algorithm, ans *federation.Answer, d time.Duration, err error) {
	if c.Log == nil {
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
// mechanism: a failed broadcast leaves that replica stale and marked so (its
// digest exchange closes the gap, on the next Ping that reaches the site or
// the repair loop's next round), and a binding the authority could not log
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
	rep := c.Replica() // before c.mu: the lazy seed takes c.mu.RLock
	if _, _, err := cl.call(site, addr, Request{Kind: kindStore, Store: o, Trace: TraceContext{From: c.ID}}); err != nil {
		return "", err
	}
	// 2. Assign the GOid (entity match by key) and apply the binding to the
	// authority's replica: logged, then bound, then observed, under the one
	// lock, so a concurrent append's snapshot never reads a half-updated
	// table and a failed append leaves table and digest as they were.
	c.mu.Lock()
	class, goid, err := c.Matcher.Assign(site, o.Class, o)
	if err == nil {
		_, err = rep.Apply(class, antientropy.Binding{GOid: goid, Site: site, LOid: o.LOid})
	}
	c.mu.Unlock()
	if err != nil {
		return "", err
	}
	// 3. Broadcast the delta to every replica. Every site is attempted even
	// after a failure — stopping at the first stale replica would leave the
	// remaining healthy replicas stale too. The aggregate error names every
	// replica that missed the delta.
	delta := &antientropy.Delta{Class: class, GOid: goid, Site: site, LOid: o.LOid}
	return goid, c.eachSite(func(peer object.SiteID, _ string) error {
		return rep.Push(context.Background(), peer, delta)
	})
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
