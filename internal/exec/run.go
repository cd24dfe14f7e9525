package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/trace"
)

// Query scopes one execution: what every step and seam operation
// of it shares.
type Query struct {
	// ID scopes the query's spans, exemplars and wire trace contexts.
	ID string
	// Alg is the executing strategy.
	Alg Algorithm
	// Bound is the query bound against the global schema.
	Bound *query.Bound
	// Tracer records the Figure 8 step spans. Nil makes every step span a
	// no-op that never reads the clock.
	Tracer *trace.Tracer

	mu   sync.Mutex
	held []*federation.Workspace
}

// workspace returns a workspace of site's for one of the query's steps,
// held until Release: the step's result outlives the step.
func (q *Query) workspace(site *federation.Site) *federation.Workspace {
	ws := site.Workspace()
	q.mu.Lock()
	q.held = append(q.held, ws)
	q.mu.Unlock()
	return ws
}

// Release releases the workspaces the query's site steps built their results
// in, once the last reader of those results is done: the global site once it
// has built the answer, a TCP site once its reply frame is sent. A nil Query
// holds nothing.
func (q *Query) Release() {
	if q == nil {
		return
	}
	q.mu.Lock()
	held := q.held
	q.held = nil
	q.mu.Unlock()
	for _, ws := range held {
		ws.Release()
	}
}

// begin opens a step span at a site, stamped with the runtime's clock.
func (q *Query) begin(p fabric.Proc, parent trace.SpanID, site object.SiteID, name, phases string) trace.Handle {
	if q.Tracer == nil {
		return trace.Handle{}
	}
	return q.Tracer.StartSpan(parent, site, name).
		WithQuery(q.ID, q.Alg.String()).WithPhases(phases).WithStart(p.Now())
}

// end closes a step span on the runtime's clock; a no-op handle costs no
// clock read.
func end(h trace.Handle, p fabric.Proc) {
	if h.ID() != 0 {
		h.EndAt(p.Now())
	}
}

// failStep closes the span of a step its site never served.
func failStep(h trace.Handle, p fabric.Proc, err error) error {
	h.Detailf("not served: %v", err)
	end(h, p)
	return err
}

// SiteOps is the global site's half of the site-operations seam: the two
// site-bound steps a strategy asks of a component site, whose SiteFlow opens
// the Figure 8 step under parent (over TCP, under the rpc span whose ID
// travels to the server and the serve span opened there). An implementation
// reads cancellation from p.Context and reports a site that did not answer
// as an error matching ErrSiteUnavailable. The second result lists the
// classes whose mappings the answering replica holds suspect.
type SiteOps interface {
	// Retrieve is CA_C1: the site ships its projected root and branch class
	// objects.
	Retrieve(p fabric.Proc, q *Query, parent trace.SpanID, site object.SiteID) (federation.RetrieveReply, []string, error)
	// Local is the site's half of a localized strategy (SiteFlow), run at
	// the site.
	Local(p fabric.Proc, q *Query, parent trace.SpanID, site object.SiteID) (LocalReply, []string, error)
}

// Runner is the global processing site: the coordinator half of every
// strategy and the one query lifecycle around it — run, outcome, metrics,
// profile — for every transport.
// Engine keeps one; remote.Coordinator assembles one per query from its
// fields.
type Runner struct {
	// Coord integrates and certifies at the global site.
	Coord *federation.Coordinator
	// Ops reaches the component sites.
	Ops SiteOps
	// State is the read side of the lock guarding the mapping tables Coord
	// reads; it is held only around Materialize/EvaluateView/Certify, never
	// across a site-bound step.
	State sync.Locker
	// Tracer, Metrics and Recorder are optional instrumentation; Recorder is
	// fed from the query's spans, so it needs Tracer.
	Tracer   *trace.Tracer
	Metrics  *metrics.Registry
	Recorder *obs.Recorder
	// Suspect, when set, reports which of the given classes this site's own
	// mapping replica holds suspect.
	Suspect func(classes []string) []string
}

// Run executes one query. The context is consulted at every site-bound
// step, so an interrupted query unwinds mid-phase instead of running to
// completion. An interrupted query does NOT return an error: it returns its
// sound partial answer — whatever certified before the cut stays certain,
// the rest stays maybe — with Answer.Outcome set to OutcomeCanceled or
// OutcomeDeadline; a query whose context is already done skips every site
// and lists them all as unavailable. Every query, failed ones included, is
// counted and profiled: its span tree is taken from the tracer once, at the
// end, and becomes its profile.
func (r *Runner) Run(ctx context.Context, rt fabric.Runtime, qid string, alg Algorithm, b *query.Bound) (*federation.Answer, fabric.Metrics, error) {
	self := r.Coord.ID()
	if ctx == nil {
		ctx = context.Background()
	}
	q := &Query{ID: qid, Alg: alg, Bound: b, Tracer: r.Tracer}
	var (
		ans  *federation.Answer
		root trace.Handle
		err  error
	)
	task := func(p fabric.Proc) {
		root = q.begin(p, 0, self, alg.String(), "")
		switch alg {
		case CA:
			ans, err = r.runCA(p, q, root.ID())
		case BL, PL, SBL, SPL:
			ans, err = r.runLocalized(p, q, root.ID())
		default:
			err = fmt.Errorf("exec: unknown algorithm %v", alg)
		}
		if ans != nil {
			ans.Outcome = outcomeOf(ctx.Err())
			root.Add("certain", int64(len(ans.Certain))).Add("maybe", int64(len(ans.Maybe)))
			if ans.Degraded {
				root.Add("degraded", 1)
				for _, f := range ans.Unavailable {
					root.Detailf("unavailable %s", f)
				}
			}
			if ans.Interrupted() {
				root.Detailf("interrupted: %s", ans.Outcome)
			}
		}
		end(root, p)
	}
	m, runErr := rt.RunContext(ctx, alg.String(), task)
	// In process the sites' steps ran in this run, and the answer is built.
	q.Release()
	if err = cmp.Or(err, runErr); err != nil {
		ans = nil
	}
	spans := r.Tracer.Take(root.ID())
	r.record(q, ans, m, spans)
	r.profile(q, ans, m, spans, cmp.Or(err, ctx.Err()))
	return ans, m, err
}

// outcomeOf maps a context error onto the answer's Outcome field.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return federation.OutcomeOK
	case errors.Is(err, context.DeadlineExceeded):
		return federation.OutcomeDeadline
	default:
		return federation.OutcomeCanceled
	}
}

// record is the one query-metrics recorder: the query counters and latency
// (the runtime's response time — wall clock under the real runtime, virtual
// under the DES), answer and certification breakdowns, the runtime's work
// per site and site pair, and the per-phase time histograms derived from
// the query's spans.
func (r *Runner) record(q *Query, ans *federation.Answer, m fabric.Metrics, spans []trace.Span) {
	if r.Metrics == nil {
		return
	}
	alg := q.Alg.String()
	at := metrics.Labels{Site: string(r.Coord.ID()), Alg: alg}
	r.Metrics.Counter("queries_total", at).Inc()
	r.Metrics.Histogram("query_latency_us", at).ObserveWithExemplar(m.ResponseMicros, q.ID)
	if ans != nil {
		algOnly := metrics.Labels{Alg: alg}
		r.Metrics.Counter("results_certain_total", algOnly).Add(int64(len(ans.Certain)))
		r.Metrics.Counter("results_maybe_total", algOnly).Add(int64(len(ans.Maybe)))
		r.Metrics.Counter("maybe_certified_total", algOnly).Add(int64(ans.Stats.Certified))
		r.Metrics.Counter("maybe_eliminated_total", algOnly).Add(int64(ans.Stats.Eliminated))
		if ans.Degraded {
			r.Metrics.Counter("degraded_queries_total", at).Inc()
		}
		switch ans.Outcome {
		case federation.OutcomeCanceled:
			r.Metrics.Counter("queries_canceled_total", at).Inc()
		case federation.OutcomeDeadline:
			r.Metrics.Counter("deadline_exceeded_total", at).Inc()
		}
	}
	for site, sc := range m.PerSite {
		l := metrics.Labels{Site: string(site), Alg: alg}
		r.Metrics.Counter("disk_bytes_total", l).Add(sc.DiskBytes)
		r.Metrics.Counter("cpu_ops_total", l).Add(sc.CPUOps)
	}
	for pair, bytes := range m.NetPairs {
		r.Metrics.Counter("net_bytes_total",
			metrics.Labels{Site: string(pair.From), Peer: string(pair.To), Alg: alg}).Add(bytes)
	}
	for _, s := range spans {
		d, ok := s.PhaseMicros()
		if !ok {
			continue
		}
		for _, ph := range s.Phases {
			r.Metrics.Histogram("phase_time_us",
				metrics.Labels{Site: string(s.Site), Alg: alg, Phase: string(ph)}).Observe(d)
		}
	}
}

// profile assembles the query's trace.Profile from its spans — the global
// site's plus, over TCP, every span the answering sites shipped back — and
// feeds the flight recorder. err is the query's failure or its context's;
// either way the recorder always retains the profile.
func (r *Runner) profile(q *Query, ans *federation.Answer, m fabric.Metrics, spans []trace.Span, err error) {
	if r.Recorder == nil {
		return
	}
	p := trace.BuildProfile(q.ID, q.Alg.String(), spans)
	if p == nil {
		return
	}
	if m.ResponseMicros > 0 {
		p.WallMicros = m.ResponseMicros
	}
	var certain, maybe int
	var unavailable []string
	if ans != nil {
		certain, maybe = len(ans.Certain), len(ans.Maybe)
		for _, f := range ans.Unavailable {
			unavailable = append(unavailable, string(f.Site))
		}
	}
	p.SetOutcome(certain, maybe, unavailable, err)
	for site, sc := range m.PerSite {
		p.AddCounter("disk_bytes", sc.DiskBytes)
		p.AddCounter("cpu_ops", sc.CPUOps)
		// IO is per component site, the counts a rate fit divides a site's
		// step time by; the global site reads no extents.
		if site != r.Coord.ID() {
			p.AddIO(string(site), trace.SiteIO{DiskBytes: sc.DiskBytes, CPUOps: sc.CPUOps})
		}
	}
	for pair, bytes := range m.NetPairs {
		p.AddCounter("net_bytes", bytes)
		// Outbound bytes charge the shipping site.
		p.AddIO(string(pair.From), trace.SiteIO{NetBytes: bytes})
	}
	r.Recorder.Record(p)
}

// settle is the one classifier of fan-out legs, global site → site and
// site → check target alike. A leg cut short by the query's own context
// (interrupted) or lost to a dead or unreachable site (unavailable) leaves
// that site's contribution unknown and degrades the answer; only the latter
// charges site_unavailable_total — the caller running out of budget says
// nothing about the site's health. Any other error is one the site answered
// deterministically (a bad query) and fails the query.
func settle(reg *metrics.Registry, self object.SiteID, alg string, sites []object.SiteID, errs []error) ([]federation.SiteFailure, error) {
	var (
		dead  []federation.SiteFailure
		fatal error
	)
	for i, err := range errs {
		switch {
		case err == nil:
		case IsInterrupted(err):
			dead = append(dead, federation.SiteFailure{Site: sites[i], Reason: err.Error()})
		case errors.Is(err, ErrSiteUnavailable):
			reg.Counter("site_unavailable_total",
				metrics.Labels{Site: string(self), Peer: string(sites[i]), Alg: alg}).Inc()
			dead = append(dead, federation.SiteFailure{Site: sites[i], Reason: err.Error()})
		case fatal == nil:
			fatal = err
		}
	}
	if fatal != nil {
		return nil, fatal
	}
	return dead, nil
}

// deadMap folds site failures into a membership map for certification (nil
// when every site served).
func deadMap(failures []federation.SiteFailure) map[object.SiteID]bool {
	if len(failures) == 0 {
		return nil
	}
	m := make(map[object.SiteID]bool, len(failures))
	for _, f := range failures {
		m[f.Site] = true
	}
	return m
}

// fanOut performs one site-bound step per site concurrently, under the G1
// span, and settles the legs: the replies (one slot per site, zero where the
// site did not answer), the sites that did not answer, the advisory
// failures — or the first fatal error. Advisory failures fold replica
// divergence into the degradation report: every answering site that flagged
// suspect classes among the query's, plus the global site's own suspect
// marks. Those sites DID answer — they mark the answer degraded but never
// enter the dead map.
func fanOut[T any](r *Runner, p fabric.Proc, q *Query, g1 trace.Handle, sites []object.SiteID,
	step func(fabric.Proc, *Query, trace.SpanID, object.SiteID) (T, []string, error),
) (replies []T, dead, advisory []federation.SiteFailure, err error) {
	replies = make([]T, len(sites))
	flagged := make([][]string, len(sites))
	errs := make([]error, len(sites))
	fns := make([]func(fabric.Proc), len(sites))
	for i, site := range sites {
		fns[i] = func(p fabric.Proc) { replies[i], flagged[i], errs[i] = step(p, q, g1.ID(), site) }
	}
	p.Fork(fns...)
	end(g1, p)
	if dead, err = settle(r.Metrics, r.Coord.ID(), q.Alg.String(), sites, errs); err != nil {
		return nil, nil, nil, err
	}
	for i, classes := range flagged {
		if len(classes) > 0 {
			advisory = append(advisory, federation.DivergenceFailure(sites[i], classes))
		}
	}
	if r.Suspect != nil {
		if own := r.Suspect(q.Bound.Classes()); len(own) > 0 {
			advisory = append(advisory, federation.DivergenceFailure(r.Coord.ID(), own))
		}
	}
	return replies, dead, advisory, nil
}

// runCA is the centralized approach: O → I → P.
func (r *Runner) runCA(p fabric.Proc, q *Query, root trace.SpanID) (*federation.Answer, error) {
	coord, b := r.Coord.ID(), q.Bound
	sites := b.InvolvedSites()

	// CA_G1 ∥ CA_C1: every involved site retrieves and ships its objects
	// (phase O).
	g1 := q.begin(p, root, coord, "CA_G1", "O").
		Detailf("request objects from %d sites", len(sites))
	replies, dead, advisory, err := fanOut(r, p, q, g1, sites, r.Ops.Retrieve)
	if err != nil {
		return nil, err
	}

	r.State.Lock()
	defer r.State.Unlock()
	// CA_G2: outerjoin integration over GOids (phase I).
	g2 := q.begin(p, root, coord, "CA_G2", "I")
	view := r.Coord.Materialize(p, b, replies)
	g2.Detailf("materialized %d objects", view.Len()).Add("objects", int64(view.Len()))
	end(g2, p)

	// CA_G3: evaluate the predicates (phase P).
	g3 := q.begin(p, root, coord, "CA_G3", "P")
	ans := r.Coord.EvaluateView(p, b, view)
	// A dead site's attributes never reached the view, so its predicates
	// already read unknown; entities stored only at dead queried root sites
	// come back as synthesized all-unknown maybe rows.
	if dm := deadMap(dead); dm != nil {
		ans.AddMaybe(r.Coord.DegradedRootRows(p, b, dm, view.Has)...)
	}
	g3.Detailf("%d certain, %d maybe", len(ans.Certain), len(ans.Maybe))
	end(g3, p)
	ans.MarkDegraded(dead)
	ans.MarkDegraded(advisory)
	return ans, nil
}

// runLocalized is the global site's half of BL, PL and their signature
// variants: G1 sends the local queries, G2 certifies (phase I). The order
// of the site steps — the strategies' whole difference — is SiteFlow's.
func (r *Runner) runLocalized(p fabric.Proc, q *Query, root trace.SpanID) (*federation.Answer, error) {
	coord, b := r.Coord.ID(), q.Bound
	sites := b.RootSites()
	g1Name, g2Name := "BL_G1", "BL_G2"
	if q.Alg == PL || q.Alg == SPL {
		g1Name, g2Name = "PL_G1", "PL_G2"
	}

	// G1 ∥ per-site C1/C2, with C3 at the check targets.
	g1 := q.begin(p, root, coord, g1Name, "").
		Detailf("local queries to %d sites", len(sites))
	replies, dead, advisory, err := fanOut(r, p, q, g1, sites, r.Ops.Local)
	if err != nil {
		return nil, err
	}
	results := make([]federation.LocalResult, len(sites))
	var verdicts []federation.CheckReply
	for i, rep := range replies {
		results[i] = rep.Result
		verdicts = append(verdicts, rep.CheckReplies...)
	}

	r.State.Lock()
	defer r.State.Unlock()
	// Only root sites that never answered their local query feed the
	// certification's dead map: a live site's silence about an entity is
	// still elimination evidence, and a dead check target merely leaves
	// verdicts missing.
	g2 := q.begin(p, root, coord, g2Name, "I")
	ans := r.Coord.CertifyDegraded(p, b, results, verdicts, deadMap(dead))
	g2.Detailf("%d certain, %d maybe", len(ans.Certain), len(ans.Maybe)).
		Add("certified", int64(ans.Stats.Certified)).
		Add("eliminated", int64(ans.Stats.Eliminated))
	end(g2, p)
	ans.MarkDegraded(dead)
	for _, rep := range replies {
		ans.MarkDegraded(rep.Unavailable)
	}
	ans.MarkDegraded(advisory)
	return ans, nil
}
