package remote

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
)

// DeltaLog is the log behind a replica's tables: it makes a binding durable
// before the replica applies it. A site's store.StorageEngine is one.
type DeltaLog interface {
	LogBind(class string, goid object.GOid, site object.SiteID, loid object.LOid) error
}

// replica is one process's copy of the GOid mapping tables — the one piece
// of state the paper replicates at every site — with the digest that mirrors
// it. Every site server and the coordinator hold one, and every mutation of
// the tables goes through apply: bind deltas (handleBind), both halves of a
// repair exchange (handleRepair, round) and the authority's own inserts
// (Coordinator.Insert). That makes "observed exactly once per applied
// binding" a property of the structure: nothing else calls Tracker.Observe.
type replica struct {
	self   object.SiteID
	tables *gmap.Tables
	// mu is the owner's state lock (Server.stateMu, Coordinator.mu), which
	// query processing reads the tables under.
	mu      *sync.RWMutex
	tracker *antientropy.Tracker
	// persist, when non-nil, is the durable log behind the tables (the
	// storage engine at a durable site, Coordinator.DeltaLog).
	persist DeltaLog
	reg     *metrics.Registry
	log     *slog.Logger

	// staleMu guards stale: the peers that missed a bind broadcast of this
	// replica's owner (so only the coordinator's has any). The mark is all that
	// is kept; what the peer lacks its next digest exchange reads off the tables.
	staleMu sync.Mutex
	stale   map[object.SiteID]bool
}

// newReplica wraps tables, seeding the digest from what they hold. It takes
// mu.RLock for the seed, so the caller must not hold mu.
func newReplica(self object.SiteID, tables *gmap.Tables, mu *sync.RWMutex, persist DeltaLog, reg *metrics.Registry, log *slog.Logger) *replica {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	r := &replica{self: self, tables: tables, mu: mu, tracker: antientropy.NewTracker(), persist: persist, reg: reg, log: log,
		stale: make(map[object.SiteID]bool)}
	mu.RLock()
	r.tracker.Seed(tables)
	mu.RUnlock()
	return r
}

// errBindConflict marks a binding the replica refuses because it contradicts
// one it holds. Repair never overwrites, so a conflicted class stays divergent
// until an operator intervenes; any other apply error (a failed log append)
// is transient and says nothing about the bindings.
var errBindConflict = errors.New("binding conflict")

// apply is the one rule that keeps a replica honest. The caller holds mu for
// writing. An exact duplicate is a re-delivery — a repair stream overlapping
// deltas already applied, a broadcast overlapping a repair — and acks
// idempotently (applied=false, no error). A conflict is refused before
// anything is logged: a binding the table would refuse must reach neither the
// log nor the digest, or the durable record and the replica (and every digest
// exchange thereafter) disagree forever. Then log, bind, observe, in that
// order: the table never gets ahead of the durable log — a restart would
// silently lose the binding — and the digest never ahead of the table.
func (r *replica) apply(class string, b antientropy.Binding) (applied bool, err error) {
	t := r.tables.Table(class)
	if t.Bound(b.GOid, b.Site, b.LOid) {
		return false, nil
	}
	if prev, ok := t.GOidOf(b.Site, b.LOid); ok && prev != b.GOid {
		return false, fmt.Errorf("%w: gmap %s: %s@%s already bound to %s", errBindConflict, class, b.LOid, b.Site, prev)
	}
	if prev, ok := t.LOidAt(b.GOid, b.Site); ok && prev != b.LOid {
		return false, fmt.Errorf("%w: gmap %s: %s already has %s at site %s", errBindConflict, class, b.GOid, prev, b.Site)
	}
	if r.persist != nil {
		if err := r.persist.LogBind(class, b.GOid, b.Site, b.LOid); err != nil {
			return false, fmt.Errorf("remote: bind log: %w", err)
		}
	}
	if err := t.Bind(b.GOid, b.Site, b.LOid); err != nil {
		return false, fmt.Errorf("%w: %v", errBindConflict, err)
	}
	r.tracker.Observe(class, b.GOid, b.Site, b.LOid)
	return true, nil
}

// applyAll applies a peer's repair bindings under the write lock. It returns
// how many were newly applied, how many conflicted (and counts those) and how
// many failed for another reason: those wait, unapplied, for a later round.
func (r *replica) applyAll(class string, peer object.SiteID, bs []antientropy.Binding) (applied, conflicts, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range bs {
		ok, err := r.apply(class, b)
		switch {
		case errors.Is(err, errBindConflict):
			conflicts++
			r.tracker.NoteConflict()
			r.reg.Counter("antientropy_conflicts_total", metrics.Labels{Site: string(r.self)}).Inc()
		case err != nil:
			failed++
			r.log.LogAttrs(context.Background(), slog.LevelWarn, "repair binding not applied",
				slog.String("class", class), slog.String("peer", string(peer)), slog.String("err", err.Error()))
		case ok:
			applied++
		}
	}
	return applied, conflicts, failed
}

// bindings returns the replica's bindings of class hashing into buckets,
// under the read lock.
func (r *replica) bindings(class string, buckets []int) []antientropy.Binding {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return antientropy.BucketBindings(r.tables.Table(class), buckets)
}

// handleStore inserts an object into the local component database (an
// Insert's first request at a site; handleBind serves its second).
func (s *Server) handleStore(req Request) Response {
	if req.Store == nil {
		return Response{Err: "store request without object"}
	}
	if err := s.cfg.DB.Insert(req.Store); err != nil {
		return Response{Err: err.Error()}
	}
	return Response{}
}

// handleBind applies a mapping-table delta to this site's replica. dispatch
// holds the state lock.
func (s *Server) handleBind(req Request) Response {
	if req.Bind == nil {
		return Response{Err: "bind request without delta"}
	}
	d := req.Bind
	if _, err := s.rep.apply(d.Class, antientropy.Binding{GOid: d.GOid, Site: d.Site, LOid: d.LOid}); err != nil {
		return Response{Err: err.Error()}
	}
	return Response{}
}
