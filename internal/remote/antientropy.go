package remote

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
)

// Anti-entropy rounds: the symmetric replica-repair protocol every replica
// (replica.go) runs, at a site server and at the coordinator alike. One
// round, for one process:
//
//  1. For every peer (sorted, so schedules are deterministic): send the
//     local per-class digest snapshot (kindDigest) and diff it against the
//     peer's reply.
//  2. For every divergent class: diff the buckets, collect the local
//     bindings in those buckets, and run one kindRepair exchange — the
//     peer applies what it is missing and replies with its own bindings in
//     the same buckets, which are applied locally. Both replicas hold the
//     union afterwards; application is idempotent (replica.apply), so
//     duplicated or re-ordered repair traffic is harmless.
//  3. Quorum accounting: a class that could not be converged with a peer
//     (repair unreachable, conflicts remained, or a binding could not be
//     logged) disagrees with that peer. A class disagreeing with a majority
//     of the reached peers — or any class, when fewer than half the peers
//     were reachable at all (a minority partition cannot confirm its replica
//     with quorum) — is marked suspect; answers touching it degrade until a
//     later round clears it. With no peers reached the previous marks are
//     kept: no information is not good news.
//
// It is the only way a replica that diverged converges again, whichever end
// was partitioned, killed or restarted from stale durable state: a peer the
// coordinator's bind broadcast missed is marked stale and has steps 1–2 run
// against it alone by the next Ping that reaches it (syncPeer).

// AntiEntropyConfig tunes a process's background anti-entropy loop.
type AntiEntropyConfig struct {
	// Interval is the cadence between rounds; 0 disables the loop.
	Interval time.Duration
}

const (
	// repairJitter spreads each wait by ±interval·repairJitter so the
	// cluster's loops decorrelate instead of synchronizing into exchange
	// storms.
	repairJitter = 0.2
	// repairTimeout bounds one digest or repair exchange.
	repairTimeout = 2 * time.Second
)

// repairLoop runs round every interval, jittered, until ctx ends.
func repairLoop(ctx context.Context, interval time.Duration, round func(context.Context) int) {
	wait := func() time.Duration {
		return time.Duration(float64(interval) * (1 + (rand.Float64()*2-1)*repairJitter))
	}
	t := time.NewTimer(wait())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			round(ctx)
			t.Reset(wait())
		}
	}
}

// tally accumulates what a round's digest exchanges found (or a Ping's one).
type tally struct {
	reached   int // peers that answered the digest
	repaired  int // bindings newly applied, at either end
	bytes     int64
	divergent map[string]bool
	disagree  map[string]int // class → peers it could not be converged with
}

func newTally() *tally {
	return &tally{divergent: make(map[string]bool), disagree: make(map[string]int)}
}

// exchange runs steps 1 and 2 with one peer and reports whether it reached the
// peer and left no class unconverged. It is the one sender of kindDigest and
// kindRepair. What it pushes is read off the tables at send time and lands
// through the idempotent apply at either end, which counts only newly applied
// bindings, so exchanges with one peer may overlap each other and Insert's
// broadcast.
func (r *replica) exchange(ctx context.Context, cl *client, site object.SiteID, addr string, t *tally) (converged bool) {
	req := Request{Kind: kindDigest, Digests: r.tracker.Snapshot(), Trace: TraceContext{From: r.self}}
	resp, w, err := cl.callTimeout(ctx, site, addr, req, repairTimeout)
	t.bytes += w.Sent + w.Received
	r.reg.Counter("antientropy_exchanges_total",
		metrics.Labels{Site: string(r.self), Peer: string(site)}).Inc()
	if err != nil {
		return false
	}
	t.reached++
	converged = true
	// Diff against a fresh snapshot: repairs against earlier peers in the
	// same round have already moved the local digest.
	for _, class := range antientropy.DiffClasses(r.tracker.Snapshot(), resp.Digests) {
		t.divergent[class] = true
		buckets := antientropy.DiffBuckets(r.tracker.Digest(class), resp.Digests[class])
		rreq := Request{
			Kind:  kindRepair,
			Trace: TraceContext{From: r.self},
			Repair: &RepairRequest{
				Class:    class,
				Buckets:  buckets,
				Bindings: r.bindings(class, buckets),
			},
		}
		rresp, rw, rerr := cl.callTimeout(ctx, site, addr, rreq, repairTimeout)
		t.bytes += rw.Sent + rw.Received
		if rerr != nil || rresp.Repair == nil {
			// Divergence seen but not converged (the peer vanished between
			// the digest and the repair): it still counts against the quorum.
			t.disagree[class]++
			converged = false
			continue
		}
		applied, conflicts, failed := r.applyAll(class, site, rresp.Repair.Bindings)
		t.repaired += applied + rresp.Repair.Applied
		if conflicts+failed+rresp.Repair.Conflicts > 0 {
			// The replicas hold genuinely contradictory bindings — repair
			// never overwrites, so they will not converge without
			// intervention — or a binding could not be logged here and waits
			// for a later round. Not converged either way.
			t.disagree[class]++
			converged = false
		}
	}
	return converged
}

// markStale records that peer missed a binding this replica holds.
func (r *replica) markStale(peer object.SiteID) {
	r.staleMu.Lock()
	defer r.staleMu.Unlock()
	r.stale[peer] = true
}

// isStale reports whether peer carries a stale mark.
func (r *replica) isStale(peer object.SiteID) bool {
	r.staleMu.Lock()
	defer r.staleMu.Unlock()
	return r.stale[peer]
}

// syncPeer is the one way a stale replica converges: the peer's digest
// exchange. A stale mark is cleared only by an exchange that converged — it is
// taken off BEFORE the exchange and put back if that did not converge, so a
// mark a concurrent Insert sets while the exchange runs (for a binding the
// exchange may not have carried) is never lost.
func (r *replica) syncPeer(ctx context.Context, cl *client, site object.SiteID, addr string, t *tally) {
	r.staleMu.Lock()
	was := r.stale[site]
	delete(r.stale, site)
	r.staleMu.Unlock()
	if !r.exchange(ctx, cl, site, addr, t) && was {
		r.markStale(site)
	}
}

// account lands finished exchanges' work in the tracker's stats and the
// antientropy_* series: a round's, or a stale peer's (a round of one, unjudged).
func (r *replica) account(t *tally) {
	r.tracker.EndRound(t.repaired, t.bytes)
	r.reg.Counter("antientropy_rounds_total", metrics.Labels{Site: string(r.self)}).Inc()
	r.reg.Counter("antientropy_repair_bytes_total", metrics.Labels{Site: string(r.self)}).Add(t.bytes)
	if t.repaired > 0 {
		r.reg.Counter("antientropy_repair_bindings_total",
			metrics.Labels{Site: string(r.self)}).Add(int64(t.repaired))
	}
	r.reg.Gauge("antientropy_suspect_classes",
		metrics.Labels{Site: string(r.self)}).Set(int64(len(r.tracker.Suspects())))
}

// round executes one round against the given peers over cl and returns the
// number of classes that were divergent with at least one reached peer (0
// means the replicas agreed everywhere they could be compared).
func (r *replica) round(ctx context.Context, cl *client, peers map[object.SiteID]string) int {
	t := newTally()
	for _, site := range sortedKeys(peers) {
		if ctx.Err() != nil {
			break
		}
		r.syncPeer(ctx, cl, site, peers[site], t)
	}

	// Quorum marks. Classes to judge: everything in the local snapshot plus
	// everything that diverged (a class the peer has and we lack shows up
	// only in the diff).
	classes := make(map[string]bool)
	for class := range r.tracker.Snapshot() {
		classes[class] = true
	}
	for class := range t.divergent {
		classes[class] = true
	}
	switch {
	case len(peers) == 0:
		// A cluster of one has nothing to agree with.
	case t.reached == 0:
		// Total isolation: no new information, keep previous marks.
	case t.reached*2 < len(peers):
		// Minority partition: this replica cannot confirm any class with a
		// quorum of peers, so every class it serves is suspect.
		for class := range classes {
			r.tracker.MarkSuspect(class, fmt.Sprintf("reached %d of %d peers", t.reached, len(peers)))
		}
	default:
		for class := range classes {
			if t.disagree[class]*2 > t.reached {
				r.tracker.MarkSuspect(class, fmt.Sprintf("diverged with %d of %d reached peers", t.disagree[class], t.reached))
			} else {
				r.tracker.ClearSuspect(class)
			}
		}
	}
	r.account(t)
	return len(t.divergent)
}

// RunAntiEntropyRound runs one digest-exchange round against this server's
// peers and returns the number of divergent classes found. The background
// loop (ServerConfig.AntiEntropy) calls it on its cadence; tests and
// operators may call it directly for an on-demand repair pass.
func (s *Server) RunAntiEntropyRound(ctx context.Context) int {
	s.mu.Lock()
	peers := s.cfg.Peers // SetPeers installs a new map, it never edits one
	s.mu.Unlock()
	return s.rep.round(ctx, s.client, peers)
}

// handleRepair serves the symmetric half of one repair exchange: apply the
// caller's bindings this replica is missing (conflicts are counted and
// skipped, never overwritten — the class stays divergent for an operator; a
// binding this site could not log stays unapplied and the digests differ
// again at the next round), then answer with this replica's own bindings in
// the divergent buckets so the caller converges too — collected before the
// caller's are applied, so the caller is not echoed its own stream back.
func (s *Server) handleRepair(req Request) Response {
	r := req.Repair
	if r == nil {
		return Response{Err: "repair request without payload"}
	}
	reply := &RepairReply{Bindings: s.rep.bindings(r.Class, r.Buckets)}
	reply.Applied, reply.Conflicts, _ = s.rep.applyAll(r.Class, req.Trace.From, r.Bindings)
	if reply.Applied > 0 {
		s.cfg.Metrics.Counter("antientropy_repair_bindings_total",
			metrics.Labels{Site: string(s.Site()), Peer: string(req.Trace.From)}).Add(int64(reply.Applied))
	}
	return Response{Repair: reply}
}

// Tracker exposes the server's divergence tracker (health surfaces, tests).
func (s *Server) Tracker() *antientropy.Tracker { return s.rep.tracker }

// DigestSnapshot returns the server's current per-class digests — the
// convergence check chaos schedules assert on.
func (s *Server) DigestSnapshot() map[string]antientropy.Digest {
	return s.rep.tracker.Snapshot()
}
