package exec

import (
	"fmt"
	"sort"
	"sync"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/trace"
)

// LocalReply is what a root site answers to a local query: its local result
// plus what its assistant checks came to.
type LocalReply struct {
	Result       federation.LocalResult
	CheckReplies []federation.CheckReply
	// Unavailable lists the check targets whose verdicts could not be
	// collected. Their predicates simply stay unknown; the global site folds
	// the failures into the answer's degradation report.
	Unavailable []federation.SiteFailure
}

// SiteLink is the component site's half of the site-operations seam: the
// one site-bound step a site asks of a peer.
type SiteLink interface {
	// Check is C3: ship the items from the site running the flow to target,
	// have target check the assistant objects, and return the verdicts. In
	// process the verdicts' transfer is charged target → global site, the
	// paper's topology; over TCP they return to the requesting site and
	// travel on with its local result — the certification outcome is the
	// same. Errors follow the SiteOps contract.
	Check(p fabric.Proc, q *Query, parent trace.SpanID, from, target object.SiteID, items []federation.CheckItem) (federation.CheckReply, error)
}

// SiteFlow is the component site's half of every strategy, for every
// transport: it opens the Figure 8 site steps (CA_C1, BL_C1+C2, PL_C1·C2,
// C3) and tags their phases. Run is the localized strategies' flow: P → O
// under the basic modes (local predicates first, checks only for the
// surviving maybe rows), O → P under the parallel modes (checks for every
// object holding missing data leave first and proceed at the peers while the
// local predicates are evaluated). Retrieve and Check are the single steps a
// site performs for another.
type SiteFlow struct {
	// Site evaluates against the local database and mapping replica.
	Site *federation.Site
	// State is the read side of the lock guarding what Site reads. It is
	// held only around a step's local reads — one acquisition spanning O and
	// P in the parallel modes, so both see one snapshot — and never across a
	// wait on peer checks. Holding it there deadlocks a federation under
	// inserts: site A's flow waits on a check at site B, B's check handler
	// waits for B's read lock behind a queued writer, and B's own flow
	// waits on a check at A in the same way.
	State sync.Locker
	// Sigs enables the signature-assisted modes when non-nil.
	Sigs *signature.Index
	// Metrics receives checks_dispatched_total and the check legs'
	// site_unavailable_total.
	Metrics *metrics.Registry
	// Link reaches the check targets.
	Link SiteLink
	// Arrive and Ship are the in-process transport's charges for the two
	// messages that frame a step, given their sizes in bytes: the request
	// reaching the site (fault plan, transfer — inside the basic flow's one
	// step, before the parallel flow's first, where Figure 8 draws them) and
	// the reply leaving for the global site (the localized flows' local
	// result while checks are still in flight). Both are nil over TCP: the
	// request has arrived, the reply is the response.
	Arrive func(p fabric.Proc, bytes int) error
	Ship   func(p fabric.Proc, bytes int)
}

// Retrieve is step CA_C1 (phase O): the site ships its projected root and
// branch class objects. parent is the span the step hangs under, as for Run.
func (f *SiteFlow) Retrieve(p fabric.Proc, q *Query, parent trace.SpanID) (federation.RetrieveReply, error) {
	c1 := q.begin(p, parent, f.Site.ID(), "CA_C1", "O")
	if err := f.arrive(p, federation.QueryWireSize(q.Bound)); err != nil {
		return federation.RetrieveReply{}, failStep(c1, p, err)
	}
	f.State.Lock()
	reply := f.Site.Retrieve(p, q.Bound)
	f.State.Unlock()
	c1.Detailf("retrieve %d classes", len(reply.Classes)).Add("classes", int64(len(reply.Classes)))
	if f.Ship != nil {
		size := reply.WireSize()
		c1.Add("bytes_shipped", int64(size))
		f.Ship(p, size)
	}
	end(c1, p)
	return reply, nil
}

// Check is step C3 (phase O) at a check target: the site checks the
// assistant objects the items name on behalf of the site from. parent is
// the dispatching site's step.
func (f *SiteFlow) Check(p fabric.Proc, q *Query, parent trace.SpanID, from object.SiteID, items []federation.CheckItem) (federation.CheckReply, error) {
	c3 := q.begin(p, parent, f.Site.ID(), "C3", "O")
	if err := f.arrive(p, federation.CheckRequest{From: from, Items: items}.WireSize()); err != nil {
		return federation.CheckReply{}, failStep(c3, p, err)
	}
	f.State.Lock()
	reply := q.workspace(f.Site).CheckAssistants(p, items)
	f.State.Unlock()
	c3.Detailf("checked %d assistants from %s", len(items), from).
		Add("items", int64(len(items)))
	if f.Ship != nil {
		f.Ship(p, reply.WireSize())
	}
	end(c3, p)
	return reply, nil
}

// Run performs the site's steps of q's strategy and gathers the check
// verdicts. parent is the span the steps hang under: the global site's G1
// in process, the serve span over TCP.
func (f *SiteFlow) Run(p fabric.Proc, q *Query, parent trace.SpanID) (LocalReply, error) {
	var sigs *signature.Index
	switch q.Alg {
	case BL, PL:
	case SBL, SPL:
		if sigs = f.Sigs; sigs == nil {
			return LocalReply{}, fmt.Errorf("exec: %v requires a signature index", q.Alg)
		}
	default:
		return LocalReply{}, fmt.Errorf("exec: %v has no site flow", q.Alg)
	}
	site, b := f.Site.ID(), q.Bound

	if q.Alg == BL || q.Alg == SBL {
		// BL_C1+C2: phase P (local predicates) then phase O (assistant
		// lookup) — the paper's P → O ordering in one local step.
		c12 := q.begin(p, parent, site, "BL_C1+C2", "PO")
		if err := f.arrive(p, federation.QueryWireSize(b)); err != nil {
			return LocalReply{}, failStep(c12, p, err)
		}
		f.State.Lock()
		res, checks := q.workspace(f.Site).EvalLocalBasic(p, b, sigs)
		f.State.Unlock()
		c12.Detailf("%d local rows, %d check targets", len(res.Rows), len(checks)).
			Add("rows", int64(len(res.Rows))).
			Add("check_targets", int64(len(checks)))
		end(c12, p)
		// Interrupted between P and dispatch: answering nothing beats
		// shipping a result the global site can no longer use.
		if err := p.Context().Err(); err != nil {
			return LocalReply{}, err
		}
		// The local result travels to the global site while the checks are
		// processed at the other sites. The checks hang under parent, which
		// encloses them: the step that dispatched them has ended.
		legs, collect := f.checkLegs(q, parent, checks)
		if f.Ship != nil {
			legs = append([]func(fabric.Proc){func(p fabric.Proc) { f.Ship(p, res.WireSize()) }}, legs...)
		}
		p.Fork(legs...)
		return collect(res)
	}

	if err := f.arrive(p, federation.QueryWireSize(b)); err != nil {
		return LocalReply{}, err
	}
	// PL_C1 (phase O): locate the unsolved items of every object and
	// dispatch the checks immediately.
	f.State.Lock()
	c1 := q.begin(p, parent, site, "PL_C1", "O")
	nav, checks := q.workspace(f.Site).NavigateAll(p, b, sigs)
	c1.Detailf("%d check targets", len(checks)).Add("check_targets", int64(len(checks)))
	end(c1, p)
	// The checks outlive PL_C1, so they hang under parent, as BL's do.
	legs, collect := f.checkLegs(q, parent, checks)
	inflight := make([]fabric.Handle, len(legs))
	for i, leg := range legs {
		inflight[i] = p.Go("check", leg)
	}
	// Mid-phase checkpoint: a query interrupted between dispatch (O) and
	// local evaluation (P) skips the evaluation but still joins its
	// in-flight checks, keeping the spawn/wait discipline intact.
	if err := p.Context().Err(); err != nil {
		f.State.Unlock()
		p.Wait(inflight...)
		return LocalReply{}, err
	}
	// PL_C2 (phase P) runs while the checks are in flight.
	c2 := q.begin(p, parent, site, "PL_C2", "P")
	res := f.Site.EvalNavigated(p, b, nav)
	f.State.Unlock()
	c2.Detailf("%d local rows", len(res.Rows)).Add("rows", int64(len(res.Rows)))
	if f.Ship != nil {
		f.Ship(p, res.WireSize())
	}
	end(c2, p)
	p.Wait(inflight...)
	return collect(res)
}

func (f *SiteFlow) arrive(p fabric.Proc, bytes int) error {
	if f.Arrive == nil {
		return nil
	}
	return f.Arrive(p, bytes)
}

// checkLegs builds one C3 leg per check target, in site order; collect,
// called once the legs have joined, settles them into the site's reply. A
// dead check target fails no query: its verdicts simply never arrive, the
// unsolved predicates stay unknown, and the dependent results stay maybe —
// and that includes a target missing from the wiring entirely. Every item
// bound for a target counts as dispatched, whatever becomes of its leg.
func (f *SiteFlow) checkLegs(q *Query, parent trace.SpanID, checks map[object.SiteID][]federation.CheckItem) ([]func(fabric.Proc), func(federation.LocalResult) (LocalReply, error)) {
	site, alg := f.Site.ID(), q.Alg.String()
	targets := make([]object.SiteID, 0, len(checks))
	for t := range checks {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	replies := make([]federation.CheckReply, len(targets))
	errs := make([]error, len(targets))
	legs := make([]func(fabric.Proc), len(targets))
	for i, target := range targets {
		items := checks[target]
		f.Metrics.Counter("checks_dispatched_total",
			metrics.Labels{Site: string(site), Alg: alg}).Add(int64(len(items)))
		legs[i] = func(p fabric.Proc) {
			replies[i], errs[i] = f.Link.Check(p, q, parent, site, target, items)
		}
	}
	return legs, func(res federation.LocalResult) (LocalReply, error) {
		dead, err := settle(f.Metrics, site, alg, targets, errs)
		if err != nil {
			return LocalReply{}, err
		}
		reply := LocalReply{Result: res, Unavailable: dead}
		for i, r := range replies {
			if errs[i] == nil {
				reply.CheckReplies = append(reply.CheckReplies, r)
			}
		}
		return reply, nil
	}
}
