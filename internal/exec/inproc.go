package exec

import (
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/trace"
)

// inproc is the in-process implementation of the site-operations seam:
// every component site is a federation.Site in this address space and the
// fabric is the network. The runtime's fault plan decides whether a message
// gets through, p.Transfer charges every message, and each op opens the
// Figure 8 step it performs as a span on the runtime's clock. Real versus
// DES is the fabric's business, not this type's. The engine operates over
// immutable fixtures, so the flows it runs need no state lock.
type inproc struct {
	coord object.SiteID
	sites map[object.SiteID]*federation.Site
	sigs  *signature.Index
	reg   *metrics.Registry
}

// noLock is the state lock of state nothing writes.
type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// reach sends a message over the from→site edge under the runtime's fault
// plan: it injects the site's configured delay, checks the link (a
// partition or dropped link makes the site unreachable for this caller even
// though the process is alive) and counts the operation against a
// drop-after budget. With no fault plan every site serves. The context is
// checked after the fault delay: a Delay-faulted site whose sleep the
// query's budget cut short must not serve.
func reach(p fabric.Proc, from, site object.SiteID) error {
	if fp := p.Faults(); fp != nil {
		if d := fp.DelayMicros(site); d > 0 {
			p.Sleep(d)
		}
		if !fp.BeginLinkOp(from, site) {
			return downError(fp.LinkReason(from, site))
		}
		if !fp.BeginOp(site) {
			return downError(fp.Reason(site))
		}
	}
	return p.Context().Err()
}

// Retrieve implements SiteOps: step CA_C1 (phase O).
func (t *inproc) Retrieve(p fabric.Proc, q *Query, parent trace.SpanID, site object.SiteID) (federation.RetrieveReply, []string, error) {
	c1 := q.begin(p, parent, site, "CA_C1", "O")
	if err := reach(p, t.coord, site); err != nil {
		return federation.RetrieveReply{}, nil, failStep(c1, p, err)
	}
	p.Transfer(t.coord, site, federation.QueryWireSize(q.Bound))
	reply := t.sites[site].Retrieve(p, q.Bound)
	size := reply.WireSize()
	c1.Detailf("retrieve %d classes", len(reply.Classes)).
		Add("classes", int64(len(reply.Classes))).
		Add("bytes_shipped", int64(size))
	p.Transfer(site, t.coord, size)
	end(c1, p)
	return reply, nil, nil
}

// Local implements SiteOps: the site flow, framed by the two transfers the
// fabric charges for it.
func (t *inproc) Local(p fabric.Proc, q *Query, parent trace.SpanID, site object.SiteID) (LocalReply, []string, error) {
	flow := SiteFlow{
		Site:    t.sites[site],
		State:   noLock{},
		Sigs:    t.sigs,
		Metrics: t.reg,
		Link:    t,
		Arrive: func(p fabric.Proc) error {
			if err := reach(p, t.coord, site); err != nil {
				return err
			}
			p.Transfer(t.coord, site, federation.QueryWireSize(q.Bound))
			return nil
		},
		Ship: func(p fabric.Proc, res federation.LocalResult) {
			p.Transfer(site, t.coord, res.WireSize())
		},
	}
	reply, err := flow.Run(p, q, parent)
	return reply, nil, err
}

// Check implements SiteLink: step C3 (phase O). The verdicts' transfer is
// charged straight to the global site, as the paper's model routes them.
func (t *inproc) Check(p fabric.Proc, q *Query, parent trace.SpanID, from, target object.SiteID, items []federation.CheckItem) (federation.CheckReply, error) {
	c3 := q.begin(p, parent, target, "C3", "O")
	if err := reach(p, from, target); err != nil {
		return federation.CheckReply{}, failStep(c3, p, err)
	}
	p.Transfer(from, target, federation.CheckRequest{From: from, Items: items}.WireSize())
	reply := t.sites[target].CheckAssistants(p, items)
	c3.Detailf("checked %d assistants from %s", len(items), from).
		Add("items", int64(len(items)))
	p.Transfer(target, t.coord, reply.WireSize())
	end(c3, p)
	return reply, nil
}
