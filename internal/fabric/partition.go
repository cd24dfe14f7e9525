package fabric

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hetfed/hetfed/internal/object"
)

// Network-level fault injection: partitions and asymmetric link loss. Site
// faults (fault.go) model a process being dead or slow; link faults model
// the network between live processes — partitioned replicas keep serving
// local work and diverge silently, which is the failure mode anti-entropy
// exists to repair.
//
// Both runtimes consult the same plan: the in-process engine before each
// site step, and over TCP the remote client before dialing and the server
// before dispatch (covering both directions of an asymmetric cut).

// Partition declares a network partition: traffic between the A side and
// the B side fails in both directions until HealPartitions. Sites in neither
// set are unaffected; a site in both sets is unreachable from everyone in
// either set, which is almost never what a schedule means — keep the sets
// disjoint.
type Partition struct {
	A []object.SiteID
	B []object.SiteID
}

// partitionState is one active partition's two sides.
type partitionState struct {
	a, b map[object.SiteID]bool
}

func (p *partitionState) cuts(from, to object.SiteID) bool {
	return (p.a[from] && p.b[to]) || (p.b[from] && p.a[to])
}

// Partition installs a partition into the plan. Multiple partitions
// compose: a link is down if any active partition (or DropLink) cuts it.
func (f *FaultPlan) Partition(p Partition) *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &partitionState{a: make(map[object.SiteID]bool, len(p.A)), b: make(map[object.SiteID]bool, len(p.B))}
	for _, s := range p.A {
		st.a[s] = true
	}
	for _, s := range p.B {
		st.b[s] = true
	}
	f.parts = append(f.parts, st)
	return f
}

// HealPartitions heals every active partition, leaving links cut by DropLink
// in place.
func (f *FaultPlan) HealPartitions() *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parts = nil
	return f
}

// DropLink cuts the single directed edge from→to (asymmetric loss: to can
// still reach from).
func (f *FaultPlan) DropLink(from, to object.SiteID) *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[Pair{From: from, To: to}] = true
	return f
}

// HealLink restores a directed edge cut by DropLink. Partitions covering
// the edge keep it down.
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
	if f.links[Pair{From: from, To: to}] {
		return false
	}
	for _, p := range f.parts {
		if p.cuts(from, to) {
			return false
		}
	}
	return true
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
	for _, p := range f.parts {
		if p.cuts(from, to) {
			return fmt.Sprintf("injected fault: partition %s|%s", joinSites(p.a), joinSites(p.b))
		}
	}
	return ""
}

func joinSites(set map[object.SiteID]bool) string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, string(s))
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}
