package fabric

import (
	"fmt"

	"github.com/hetfed/hetfed/internal/object"
)

// Network-level fault injection: directed link loss. Site faults
// (fault.go) model a process being dead or slow; link faults model the
// network between live processes — cut-off replicas keep serving local work
// and diverge silently, which is the failure mode anti-entropy exists to
// repair. A partition is its links cut both ways.
//
// Both runtimes consult the same plan: the in-process engine before each
// site step, and over TCP the remote client before dialing and the server
// before dispatch (covering both directions of an asymmetric cut).

// DropLink cuts the single directed edge from→to (asymmetric loss: to can
// still reach from).
func (f *FaultPlan) DropLink(from, to object.SiteID) *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[Pair{From: from, To: to}] = true
	return f
}

// HealLink restores a directed edge cut by DropLink.
func (f *FaultPlan) HealLink(from, to object.SiteID) *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.links, Pair{From: from, To: to})
	return f
}

// BeginLinkOp reports whether traffic from→to goes through. A nil plan, or
// a caller without link identity (an operator CLI, say), always goes
// through.
func (f *FaultPlan) BeginLinkOp(from, to object.SiteID) bool {
	if f == nil || from == "" || to == "" {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.links[Pair{From: from, To: to}]
}

// LinkReason describes why the edge from→to is down, for degradation
// reports ("" when it is up).
func (f *FaultPlan) LinkReason(from, to object.SiteID) string {
	if f == nil || from == "" || to == "" {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.links[Pair{From: from, To: to}] {
		return fmt.Sprintf("injected fault: link %s→%s dropped", from, to)
	}
	return ""
}
