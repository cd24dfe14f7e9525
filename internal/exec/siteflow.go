package exec

import (
	"cmp"
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

// SiteFlow is the component site's half of the localized strategies, for
// every transport: P → O under the basic modes (local predicates first,
// checks only for the surviving maybe rows), O → P under the parallel modes
// (checks for every object holding missing data leave first and proceed at
// the peers while the local predicates are evaluated).
type SiteFlow struct {
	// Site evaluates against the local database and mapping replica.
	Site *federation.Site
	// State is the read side of the lock guarding what Site reads. It is
	// held only around local evaluation — one acquisition spanning O and P
	// in the parallel modes, so both see one snapshot — and never across a
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
	// messages that frame the flow: the local query reaching the site (fault
	// plan, transfer — inside the basic flow's one step, before the parallel
	// flow's first, where Figure 8 draws them) and the local result leaving
	// for the global site while checks are still in flight. Both are nil
	// over TCP: the request has arrived, the result travels with the reply.
	Arrive func(p fabric.Proc) error
	Ship   func(p fabric.Proc, res federation.LocalResult)
}

// Run performs the site's steps of q's strategy and gathers the check
// verdicts. parent is the span the steps hang under: the global site's G1
// in process (the flow opens the Figure 8 step spans itself), the serve
// span over TCP (q.Tracer is nil there and the checks parent on it
// directly).
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
		if err := f.arrive(p); err != nil {
			return LocalReply{}, failStep(c12, p, err)
		}
		f.State.Lock()
		res, checks := f.Site.EvalLocalBasic(p, b, sigs)
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
		// processed at the other sites. The checks hang under the step that
		// dispatched them where the flow records steps, else under parent.
		legs, collect := f.checkLegs(q, cmp.Or(c12.ID(), parent), checks)
		if f.Ship != nil {
			legs = append([]func(fabric.Proc){func(p fabric.Proc) { f.Ship(p, res) }}, legs...)
		}
		p.Fork(legs...)
		return collect(res)
	}

	if err := f.arrive(p); err != nil {
		return LocalReply{}, err
	}
	// PL_C1 (phase O): locate the unsolved items of every object and
	// dispatch the checks immediately.
	f.State.Lock()
	c1 := q.begin(p, parent, site, "PL_C1", "O")
	nav, checks := f.Site.NavigateAll(p, b, sigs)
	c1.Detailf("%d check targets", len(checks)).Add("check_targets", int64(len(checks)))
	end(c1, p)
	legs, collect := f.checkLegs(q, cmp.Or(c1.ID(), parent), checks)
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
		f.Ship(p, res)
	}
	end(c2, p)
	p.Wait(inflight...)
	return collect(res)
}

func (f *SiteFlow) arrive(p fabric.Proc) error {
	if f.Arrive == nil {
		return nil
	}
	return f.Arrive(p)
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
