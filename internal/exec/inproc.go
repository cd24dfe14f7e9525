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
// gets through and p.Transfer charges every message; the step each op
// performs is SiteFlow's, as on every transport. Real versus
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

// flow is site's half of a step that from asks of it, charged on the
// fabric: the request crosses from → site under the fault plan, the reply
// site → global site.
func (t *inproc) flow(site, from object.SiteID) *SiteFlow {
	return &SiteFlow{
		Site:    t.sites[site],
		State:   noLock{},
		Sigs:    t.sigs,
		Metrics: t.reg,
		Link:    t,
		Arrive: func(p fabric.Proc, bytes int) error {
			if err := reach(p, from, site); err != nil {
				return err
			}
			p.Transfer(from, site, bytes)
			return nil
		},
		Ship: func(p fabric.Proc, bytes int) { p.Transfer(site, t.coord, bytes) },
	}
}

// Retrieve implements SiteOps: step CA_C1.
func (t *inproc) Retrieve(p fabric.Proc, q *Query, parent trace.SpanID, site object.SiteID) (federation.RetrieveReply, []string, error) {
	reply, err := t.flow(site, t.coord).Retrieve(p, q, parent)
	return reply, nil, err
}

// Local implements SiteOps: the site flow.
func (t *inproc) Local(p fabric.Proc, q *Query, parent trace.SpanID, site object.SiteID) (LocalReply, []string, error) {
	reply, err := t.flow(site, t.coord).Run(p, q, parent)
	return reply, nil, err
}

// Check implements SiteLink: step C3 at target. The verdicts' transfer is
// charged straight to the global site, as the paper's model routes them.
func (t *inproc) Check(p fabric.Proc, q *Query, parent trace.SpanID, from, target object.SiteID, items []federation.CheckItem) (federation.CheckReply, error) {
	return t.flow(target, from).Check(p, q, parent, from, items)
}
