package remote

import (
	"context"
	"math/rand/v2"
	"time"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/object"
)

// Anti-entropy over TCP: every site server and the coordinator own one
// antientropy.Replica, which holds the protocol; this file carries its
// messages as kindDigest/kindRepair/kindBind requests and runs its rounds on
// a jittered cadence.

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

// replicaSend is the antientropy.Send of the process self: it resolves a
// peer's address with addr and carries the message as the request kind of
// the same name, a digest or repair exchange under repairTimeout.
func replicaSend(self object.SiteID, cl func() *client, addr func(object.SiteID) (string, bool)) antientropy.Send {
	return func(ctx context.Context, peer object.SiteID, m antientropy.Msg) (antientropy.Reply, int64, error) {
		a, ok := addr(peer)
		if !ok {
			return antientropy.Reply{}, 0, &SiteError{Site: peer, Err: errPeerNotWired}
		}
		if m.Kind != kindBind {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, repairTimeout)
			defer cancel()
		}
		req := Request{Kind: m.Kind, Digests: m.Digests, Repair: m.Repair, Bind: m.Bind, Trace: TraceContext{From: self}}
		resp, w, err := cl().call(ctx, peer, a, req)
		return antientropy.Reply{Digests: resp.Digests, Repair: resp.Repair}, w.Sent + w.Received, err
	}
}

// RunAntiEntropyRound runs one digest-exchange round against this server's
// peers and returns the number of divergent classes found. The background
// loop (ServerConfig.AntiEntropy) calls it on its cadence; tests and
// operators may call it directly for an on-demand repair pass.
func (s *Server) RunAntiEntropyRound(ctx context.Context) int {
	s.mu.Lock()
	peers := sortedKeys(s.cfg.Peers) // SetPeers installs a new map, it never edits one
	s.mu.Unlock()
	return s.rep.Round(ctx, peers)
}

// Replica exposes the server's mapping-table replica (health surfaces,
// convergence checks).
func (s *Server) Replica() *antientropy.Replica { return s.rep }
