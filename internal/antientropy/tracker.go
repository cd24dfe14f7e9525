package antientropy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
)

// Tracker maintains one replica's per-class digests plus its divergence
// state: which classes are currently suspect (digest disagreed with a
// quorum of peers in the last exchange) and the running repair totals the
// health surface reports. Safe for concurrent use; every update is O(1).
type Tracker struct {
	mu       sync.Mutex
	digests  map[string]*Digest
	suspect  map[string]string // class → reason
	round    uint64            // completed anti-entropy rounds
	repaired uint64            // bindings applied through repair
	bytes    uint64            // repair wire bytes (both directions)
	conflict uint64            // bindings repair could not apply
}

// NewTracker returns an empty tracker (the digest state of empty tables).
func NewTracker() *Tracker {
	return &Tracker{
		digests: make(map[string]*Digest),
		suspect: make(map[string]string),
	}
}

// Observe folds one applied binding into its class digest in O(1). Call
// it exactly once per binding actually applied to the replica, or the
// binding folds in twice and XOR-cancels — remote's replica.apply, which
// every mutation of a mapping-table replica passes through, is the one
// caller.
func (t *Tracker) Observe(class string, goid object.GOid, site object.SiteID, loid object.LOid) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.digests[class]
	if d == nil {
		d = &Digest{}
		t.digests[class] = d
	}
	d.Add(goid, site, loid)
}

// Seed rebuilds the digests from a full replica snapshot (server start,
// after WAL recovery and fixture import). It resets previous digest state
// but keeps suspect marks and repair totals.
func (t *Tracker) Seed(tables *gmap.Tables) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.digests = make(map[string]*Digest)
	if tables == nil {
		return
	}
	for _, class := range tables.Classes() {
		tab := tables.Table(class)
		d := &Digest{}
		for _, goid := range tab.GOids() {
			for _, loc := range tab.Locations(goid) {
				d.Add(goid, loc.Site, loc.LOid)
			}
		}
		t.digests[class] = d
	}
}

// Snapshot returns a copy of the per-class digests, the unit one digest
// exchange ships.
func (t *Tracker) Snapshot() map[string]Digest {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]Digest, len(t.digests))
	for class, d := range t.digests {
		out[class] = *d
	}
	return out
}

// Digest returns one class's digest (the zero digest when the class was
// never observed).
func (t *Tracker) Digest(class string) Digest {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d := t.digests[class]; d != nil {
		return *d
	}
	return Digest{}
}

// MarkSuspect flags a class whose digest disagreed with the peer quorum.
func (t *Tracker) MarkSuspect(class, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.suspect[class] = reason
}

// ClearSuspect removes a class's suspect mark (its digest agreed with
// every reached peer again).
func (t *Tracker) ClearSuspect(class string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.suspect, class)
}

// Suspects returns the currently suspect classes, sorted.
func (t *Tracker) Suspects() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.suspect))
	for class := range t.suspect {
		out = append(out, class)
	}
	sort.Strings(out)
	return out
}

// SuspectReasons returns the suspect classes with their recorded reasons
// (the health-surface detail view; empty map when converged).
func (t *Tracker) SuspectReasons() map[string]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.suspect))
	for class, reason := range t.suspect {
		out[class] = reason
	}
	return out
}

// SuspectOf intersects the given classes with the suspect set, sorted —
// the per-answer degradation hook: a query touching these classes cannot
// trust this replica's mappings until repair converges.
func (t *Tracker) SuspectOf(classes []string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.suspect) == 0 {
		return nil
	}
	var out []string
	for _, class := range classes {
		if _, ok := t.suspect[class]; ok {
			out = append(out, class)
		}
	}
	sort.Strings(out)
	return out
}

// EndRound records one completed anti-entropy round's repair totals.
func (t *Tracker) EndRound(repairedBindings int, repairedBytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.round++
	t.repaired += uint64(repairedBindings)
	if repairedBytes > 0 {
		t.bytes += uint64(repairedBytes)
	}
}

// NoteConflict counts a binding repair could not apply (a genuine mapping
// conflict, e.g. a GOid reassigned by an authority that restarted from
// stale state). Conflicted classes stay suspect until an operator
// intervenes; repair never overwrites a binding.
func (t *Tracker) NoteConflict() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.conflict++
}

// Stats is the tracker's counters snapshot.
type Stats struct {
	Round            uint64
	RepairedBindings uint64
	RepairedBytes    uint64
	Conflicts        uint64
	Suspects         []string
}

// Stats returns the current counters and suspect set.
func (t *Tracker) Stats() Stats {
	t.mu.Lock()
	round, repaired, bytes, conflicts := t.round, t.repaired, t.bytes, t.conflict
	t.mu.Unlock()
	return Stats{
		Round:            round,
		RepairedBindings: repaired,
		RepairedBytes:    bytes,
		Conflicts:        conflicts,
		Suspects:         t.Suspects(),
	}
}

// Health reports the tracker's divergence state for /healthz (namespace it
// with obs.PrefixHealth("antientropy", ...)): a single "state" entry that
// is "ok(round=N, repaired=B)" while no class is suspect and
// "suspect(C1,C2) round=N repaired=B" otherwise — unhealthy by
// obs.Healthy, so a diverged replica degrades its process's health the
// same way an open breaker does. The repaired figure is cumulative wire
// bytes spent on repair.
func (t *Tracker) Health() map[string]string {
	s := t.Stats()
	if len(s.Suspects) == 0 {
		return map[string]string{
			"state": fmt.Sprintf("ok(round=%d, repaired=%dB)", s.Round, s.RepairedBytes),
		}
	}
	return map[string]string{
		"state": fmt.Sprintf("suspect(%s) round=%d repaired=%dB",
			strings.Join(s.Suspects, ","), s.Round, s.RepairedBytes),
	}
}
