package antientropy

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"strings"
	"sync"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
)

// Message kinds. The owner's transport carries each as a request kind of the
// same name.
const (
	// KindDigest compares replicas: the message carries the sender's
	// per-class digests, the reply the receiver's.
	KindDigest = "digest"
	// KindRepair converges one divergent class in one exchange: the message
	// ships the sender's bindings in the divergent buckets, the receiver
	// applies the ones it is missing and replies with its own bindings in
	// those buckets.
	KindRepair = "repair"
	// KindBind delivers one binding the mapping authority assigned.
	KindBind = "bind"
)

// Msg is one message a replica sends a peer.
type Msg struct {
	Kind    string
	Digests map[string]Digest // KindDigest
	Repair  *Repair           // KindRepair
	Bind    *Delta            // KindBind
}

// Reply is a peer's answer to a Msg.
type Reply struct {
	Digests map[string]Digest // to KindDigest
	Repair  *RepairReply      // to KindRepair
}

// Repair converges one class between two replicas: Buckets names the
// divergent digest buckets, Bindings ships the sender's bindings in them.
type Repair struct {
	Class    string
	Buckets  []int
	Bindings []Binding
}

// RepairReply is the receiver's half of a repair exchange.
type RepairReply struct {
	// Bindings are the receiver's bindings in the requested buckets, for the
	// sender to apply on its side.
	Bindings []Binding
	// Applied counts the sender's bindings the receiver was missing and
	// applied; Conflicts counts the ones it refused.
	Applied   int
	Conflicts int
}

// Delta is one new mapping-table binding, broadcast by the mapping authority
// to every replica after an insert.
type Delta struct {
	Class string
	GOid  object.GOid
	Site  object.SiteID
	LOid  object.LOid
}

// Send carries m to peer and returns the peer's reply, the wire bytes of the
// exchange in both directions, and an error when the peer was not reached or
// refused the message. The replica's owner supplies it; the replica never
// sees a transport.
type Send func(ctx context.Context, peer object.SiteID, m Msg) (Reply, int64, error)

// DeltaLog is the log behind a replica's tables: it makes a binding durable
// before the replica applies it. A site's storage engine is one.
type DeltaLog interface {
	LogBind(class string, goid object.GOid, site object.SiteID, loid object.LOid) error
}

// ErrConflict marks a binding a replica refuses because it contradicts one it
// holds. Repair never overwrites, so a conflicted class stays divergent until
// an operator intervenes; any other apply error (a failed log append) is
// transient and says nothing about the bindings.
var ErrConflict = errors.New("binding conflict")

// Replica is one process's copy of the GOid mapping tables — the one piece of
// state the paper replicates at every site — with the digests that mirror it,
// its divergence state and the protocol that repairs it. Every site server
// and the coordinator hold one. Every mutation of the tables goes through
// Apply (a bind delta, both halves of a repair, the authority's own inserts),
// so "observed exactly once per applied binding" is a property of the
// structure, and every message to a peer goes through the owner's Send.
//
// The protocol, for one round against the peers:
//
//  1. For every peer: send the local digests (KindDigest) and diff them
//     against the reply.
//  2. For every divergent class: diff the buckets and run one KindRepair
//     exchange with the local bindings in them. Both replicas hold the union
//     afterwards; Apply is idempotent, so duplicated or re-ordered repair
//     traffic is harmless.
//  3. Quorum: a class that could not be converged with a peer (repair
//     unreachable, conflicts remained, a binding could not be logged)
//     disagrees with it. A class disagreeing with a majority of the reached
//     peers — or every class, when fewer than half the peers were reached (a
//     minority partition cannot confirm its replica) — is marked suspect;
//     answers touching it degrade until a clean quorum round clears it. With
//     no peer reached the marks are kept: no information is not good news.
//
// Steps 1–2 with one peer are also how a peer the authority's bind broadcast
// missed converges: Push marks it stale, and the next Sync that reaches it
// (the owner's Ping) or round runs its exchange.
type Replica struct {
	self   object.SiteID
	tables *gmap.Tables
	// state is the owner's lock over tables, which query processing reads
	// them under.
	state  *sync.RWMutex
	log    DeltaLog // nil for tables kept in memory only
	send   Send
	reg    *metrics.Registry
	logger *slog.Logger

	// mu guards the fields below. Lock order: state, then mu.
	mu      sync.Mutex
	digests map[string]Digest
	suspect map[string]bool
	// stale holds the peers that missed a bind broadcast of this replica's
	// owner (so only the authority's has any). The mark is all that is kept;
	// what the peer lacks its next exchange reads off the tables.
	stale     map[object.SiteID]bool
	rounds    uint64
	repaired  uint64 // bindings applied through repair, at either end
	bytes     uint64 // repair wire bytes, both directions
	conflicts uint64
}

// NewReplica wraps tables, guarded by the owner's state lock, seeding the
// digests from what they hold (under state.RLock, so the caller must not
// hold state). log, when non-nil, is the durable log behind the tables;
// send reaches the peers; reg and logger may be nil.
func NewReplica(self object.SiteID, tables *gmap.Tables, state *sync.RWMutex, log DeltaLog, send Send,
	reg *metrics.Registry, logger *slog.Logger) *Replica {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	state.RLock()
	digests := Digests(tables)
	state.RUnlock()
	return &Replica{self: self, tables: tables, state: state, log: log, send: send, reg: reg, logger: logger,
		digests: digests, suspect: make(map[string]bool), stale: make(map[object.SiteID]bool)}
}

// Digests computes every class digest of tables (none for nil tables) from
// scratch.
func Digests(tables *gmap.Tables) map[string]Digest {
	out := make(map[string]Digest)
	if tables == nil {
		return out
	}
	for _, class := range tables.Classes() {
		tab := tables.Table(class)
		var d Digest
		for _, goid := range tab.GOids() {
			for _, loc := range tab.Locations(goid) {
				d.Add(goid, loc.Site, loc.LOid)
			}
		}
		out[class] = d
	}
	return out
}

// Apply is the one rule that keeps a replica honest. The caller holds the
// state lock for writing. An exact duplicate is a re-delivery and acks
// idempotently (applied=false, no error). A conflict is refused before
// anything is logged: a binding the table would refuse must reach neither the
// log nor the digest, or the durable record and the replica disagree forever.
// Then log, bind, observe, in that order: the table never gets ahead of the
// durable log, nor the digest ahead of the table.
func (r *Replica) Apply(class string, b Binding) (applied bool, err error) {
	t := r.tables.Table(class)
	if t.Bound(b.GOid, b.Site, b.LOid) {
		return false, nil
	}
	if prev, ok := t.GOidOf(b.Site, b.LOid); ok && prev != b.GOid {
		return false, fmt.Errorf("%w: gmap %s: %s@%s already bound to %s", ErrConflict, class, b.LOid, b.Site, prev)
	}
	if prev, ok := t.LOidAt(b.GOid, b.Site); ok && prev != b.LOid {
		return false, fmt.Errorf("%w: gmap %s: %s already has %s at site %s", ErrConflict, class, b.GOid, prev, b.Site)
	}
	if r.log != nil {
		if err := r.log.LogBind(class, b.GOid, b.Site, b.LOid); err != nil {
			return false, fmt.Errorf("antientropy: bind log: %w", err)
		}
	}
	if err := t.Bind(b.GOid, b.Site, b.LOid); err != nil {
		return false, fmt.Errorf("%w: %v", ErrConflict, err)
	}
	r.observe(class, b)
	return true, nil
}

// observe folds one applied binding into its class digest. Apply is the one
// caller: a binding folded twice XOR-cancels.
func (r *Replica) observe(class string, b Binding) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.digests[class]
	d.Add(b.GOid, b.Site, b.LOid)
	r.digests[class] = d
}

// applyAll applies a peer's repair bindings under the state lock. It returns
// how many were newly applied, how many conflicted (and counts those) and how
// many failed for another reason: those wait, unapplied, for a later round.
func (r *Replica) applyAll(class string, peer object.SiteID, bs []Binding) (applied, conflicts, failed int) {
	r.state.Lock()
	defer r.state.Unlock()
	for _, b := range bs {
		ok, err := r.Apply(class, b)
		switch {
		case errors.Is(err, ErrConflict):
			conflicts++
			r.mu.Lock()
			r.conflicts++
			r.mu.Unlock()
			r.reg.Counter("antientropy_conflicts_total", metrics.Labels{Site: string(r.self)}).Inc()
		case err != nil:
			failed++
			r.logger.LogAttrs(context.Background(), slog.LevelWarn, "repair binding not applied",
				slog.String("class", class), slog.String("peer", string(peer)), slog.String("err", err.Error()))
		case ok:
			applied++
		}
	}
	return applied, conflicts, failed
}

// bindings returns the replica's bindings of class hashing into buckets.
func (r *Replica) bindings(class string, buckets []int) []Binding {
	r.state.RLock()
	defer r.state.RUnlock()
	return BucketBindings(r.tables.Table(class), buckets)
}

// Handle serves a peer's message. A repair applies the sender's bindings this
// replica is missing (conflicts are counted and skipped, never overwritten; a
// binding that could not be logged stays unapplied and the digests differ
// again at the next round) and answers with this replica's own bindings in
// the divergent buckets, collected before the sender's are applied so the
// sender is not echoed its own stream back.
func (r *Replica) Handle(from object.SiteID, m Msg) (Reply, error) {
	switch {
	case m.Kind == KindDigest:
		// A snapshot mid-bind is merely one binding stale, which the next
		// round reconciles.
		return Reply{Digests: r.Snapshot()}, nil
	case m.Kind == KindBind && m.Bind != nil:
		d := m.Bind
		r.state.Lock()
		defer r.state.Unlock()
		_, err := r.Apply(d.Class, Binding{GOid: d.GOid, Site: d.Site, LOid: d.LOid})
		return Reply{}, err
	case m.Kind == KindRepair && m.Repair != nil:
		reply := &RepairReply{Bindings: r.bindings(m.Repair.Class, m.Repair.Buckets)}
		reply.Applied, reply.Conflicts, _ = r.applyAll(m.Repair.Class, from, m.Repair.Bindings)
		if reply.Applied > 0 {
			r.reg.Counter("antientropy_repair_bindings_total",
				metrics.Labels{Site: string(r.self), Peer: string(from)}).Add(int64(reply.Applied))
		}
		return Reply{Repair: reply}, nil
	}
	return Reply{}, fmt.Errorf("%s message without payload", m.Kind)
}

// Push delivers a binding the authority assigned to one peer. A peer it does
// not reach, or that refuses the binding, is marked stale and counted
// (replica_stale_total); its next exchange closes the gap.
func (r *Replica) Push(ctx context.Context, peer object.SiteID, d *Delta) error {
	if _, _, err := r.send(ctx, peer, Msg{Kind: KindBind, Bind: d}); err != nil {
		r.reg.Counter("replica_stale_total", metrics.Labels{Site: string(r.self), Peer: string(peer)}).Inc()
		r.MarkStale(peer)
		return fmt.Errorf("antientropy: replica at %s is stale: %w", peer, err)
	}
	return nil
}

// MarkStale records that peer missed a binding this replica holds.
func (r *Replica) MarkStale(peer object.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stale[peer] = true
}

// Stale reports whether peer carries a stale mark.
func (r *Replica) Stale(peer object.SiteID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stale[peer]
}

// tally accumulates what exchanges found: a round's, or a Sync's one.
type tally struct {
	reached   int // peers that answered the digest
	repaired  int // bindings newly applied, at either end
	bytes     int64
	divergent map[string]bool
	disagree  map[string]int // class → peers it could not be converged with
}

// exchange runs steps 1 and 2 with one peer and reports whether it reached the
// peer and left no class unconverged. It is the one sender of KindDigest and
// KindRepair. What it pushes is read off the tables at send time and lands
// through the idempotent Apply at either end, so exchanges with one peer may
// overlap each other and Push.
func (r *Replica) exchange(ctx context.Context, peer object.SiteID, t *tally) (converged bool) {
	reply, n, err := r.send(ctx, peer, Msg{Kind: KindDigest, Digests: r.Snapshot()})
	t.bytes += n
	r.reg.Counter("antientropy_exchanges_total", metrics.Labels{Site: string(r.self), Peer: string(peer)}).Inc()
	if err != nil {
		return false
	}
	t.reached++
	converged = true
	// Diff against a fresh snapshot: exchanges with earlier peers in the same
	// round have already moved the local digests.
	for _, class := range DiffClasses(r.Snapshot(), reply.Digests) {
		t.divergent[class] = true
		buckets := DiffBuckets(r.Digest(class), reply.Digests[class])
		rep, n, err := r.send(ctx, peer, Msg{Kind: KindRepair,
			Repair: &Repair{Class: class, Buckets: buckets, Bindings: r.bindings(class, buckets)}})
		t.bytes += n
		if err != nil || rep.Repair == nil {
			// Divergence seen but not converged (the peer vanished between
			// the digest and the repair): it still counts against the quorum.
			t.disagree[class]++
			converged = false
			continue
		}
		applied, conflicts, failed := r.applyAll(class, peer, rep.Repair.Bindings)
		t.repaired += applied + rep.Repair.Applied
		if conflicts+failed+rep.Repair.Conflicts > 0 {
			// Contradictory bindings — repair never overwrites — or one that
			// could not be logged here and waits for a later round.
			t.disagree[class]++
			converged = false
		}
	}
	return converged
}

// syncPeer runs the exchange with peer. A stale mark is cleared only by an
// exchange that converged: it is taken off BEFORE the exchange and put back
// if that did not converge, so a mark a concurrent Push sets meanwhile (for
// a binding the exchange may not have carried) is never lost.
func (r *Replica) syncPeer(ctx context.Context, peer object.SiteID, t *tally) {
	r.mu.Lock()
	was := r.stale[peer]
	delete(r.stale, peer)
	r.mu.Unlock()
	if !r.exchange(ctx, peer, t) && was {
		r.MarkStale(peer)
	}
}

// Sync runs the exchange with peer if it is marked stale — what the owner's
// Ping does for each peer it reaches. Suspect marks are left alone: one peer
// is no quorum.
func (r *Replica) Sync(ctx context.Context, peer object.SiteID) {
	if !r.Stale(peer) {
		return
	}
	t := &tally{divergent: map[string]bool{}, disagree: map[string]int{}}
	r.syncPeer(ctx, peer, t)
	r.account(t)
}

// Round runs one round against peers, in the order given, and returns the
// number of classes that were divergent with at least one reached peer (0
// means the replicas agreed everywhere they could be compared).
func (r *Replica) Round(ctx context.Context, peers []object.SiteID) int {
	t := &tally{divergent: map[string]bool{}, disagree: map[string]int{}}
	for _, peer := range peers {
		if ctx.Err() != nil {
			break
		}
		r.syncPeer(ctx, peer, t)
	}

	r.mu.Lock()
	// Classes to judge: every local one plus everything that diverged (a
	// class the peer has and this replica lacks shows up only in the diff).
	classes := maps.Clone(t.divergent)
	for class := range r.digests {
		classes[class] = true
	}
	switch {
	case len(peers) == 0, t.reached == 0:
		// A cluster of one has nothing to agree with; total isolation brings
		// no new information.
	case t.reached*2 < len(peers):
		for class := range classes {
			r.suspect[class] = true
		}
	default:
		for class := range classes {
			if t.disagree[class]*2 > t.reached {
				r.suspect[class] = true
			} else {
				delete(r.suspect, class)
			}
		}
	}
	r.mu.Unlock()
	r.account(t)
	return len(t.divergent)
}

// account lands finished exchanges' work in the stats and the antientropy_*
// series.
func (r *Replica) account(t *tally) {
	r.mu.Lock()
	r.rounds++
	r.repaired += uint64(t.repaired)
	r.bytes += uint64(t.bytes)
	suspects := len(r.suspect)
	r.mu.Unlock()
	self := metrics.Labels{Site: string(r.self)}
	r.reg.Counter("antientropy_rounds_total", self).Inc()
	r.reg.Counter("antientropy_repair_bytes_total", self).Add(t.bytes)
	if t.repaired > 0 {
		r.reg.Counter("antientropy_repair_bindings_total", self).Add(int64(t.repaired))
	}
	r.reg.Gauge("antientropy_suspect_classes", self).Set(int64(suspects))
}

// Snapshot returns a copy of the per-class digests, what one digest message
// ships.
func (r *Replica) Snapshot() map[string]Digest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.digests)
}

// Digest returns one class's digest (the zero digest for a class never
// bound).
func (r *Replica) Digest(class string) Digest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.digests[class]
}

// Suspects returns the suspect classes, sorted.
func (r *Replica) Suspects() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.suspect))
	for class := range r.suspect {
		out = append(out, class)
	}
	slices.Sort(out)
	return out
}

// SuspectOf intersects classes with the suspect set, sorted — the per-answer
// degradation hook: a query touching these classes cannot trust this
// replica's mappings until repair converges.
func (r *Replica) SuspectOf(classes []string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.suspect) == 0 {
		return nil
	}
	var out []string
	for _, class := range classes {
		if r.suspect[class] {
			out = append(out, class)
		}
	}
	slices.Sort(out)
	return out
}

// Stats is a replica's repair counters and suspect set.
type Stats struct {
	Round            uint64
	RepairedBindings uint64
	RepairedBytes    uint64
	Conflicts        uint64
	Suspects         []string
}

// Stats returns the current counters and suspect set.
func (r *Replica) Stats() Stats {
	suspects := r.Suspects()
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{Round: r.rounds, RepairedBindings: r.repaired, RepairedBytes: r.bytes,
		Conflicts: r.conflicts, Suspects: suspects}
}

// Health reports the divergence state for /healthz (namespace it with
// obs.PrefixHealth("antientropy", ...)): one "state" entry,
// "ok(round=N, repaired=B)" while no class is suspect and
// "suspect(C1,C2) round=N repaired=B" otherwise — unhealthy by obs.Healthy,
// so a diverged replica degrades its process's health. B is the cumulative
// repair wire bytes.
func (r *Replica) Health() map[string]string {
	s := r.Stats()
	if len(s.Suspects) == 0 {
		return map[string]string{"state": fmt.Sprintf("ok(round=%d, repaired=%dB)", s.Round, s.RepairedBytes)}
	}
	return map[string]string{"state": fmt.Sprintf("suspect(%s) round=%d repaired=%dB",
		strings.Join(s.Suspects, ","), s.Round, s.RepairedBytes)}
}
