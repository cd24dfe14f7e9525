package remote

import (
	"context"
	"errors"
	"net"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/metrics"
)

// TestClientPoolsConnections: repeated calls to the same site must reuse one
// pooled connection instead of dialing per request.
func TestClientPoolsConnections(t *testing.T) {
	_, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	srv := servers["DB1"]

	cl := newClient("TEST", CallConfig{}, nil)
	defer cl.close()
	for i := 0; i < 5; i++ {
		if _, _, err := cl.call(context.Background(), "DB1", srv.Addr(), Request{Kind: kindPing}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	p := cl.pool(srv.Addr())
	if n := p.size(); n != 1 {
		t.Errorf("idle pool size after 5 sequential calls = %d, want 1 (reused)", n)
	}
}

// TestZeroCallConfigHasNoBreaker: the zero CallConfig — what a ServerConfig
// or Coordinator that leaves Call unset runs with — is DefaultCallConfig, and
// neither has a breaker to tell them apart.
func TestZeroCallConfigHasNoBreaker(t *testing.T) {
	got, want := CallConfig{}.withDefaults(), DefaultCallConfig()
	if got.DialTimeout != want.DialTimeout || got.CallTimeout != want.CallTimeout {
		t.Errorf("zero CallConfig = %+v, want DefaultCallConfig's timeouts %+v", got, want)
	}
}

// TestRefusedPeerIsDialedOnEveryCall: a site call has one failure path.
// Under DefaultCallConfig every call to a peer that refuses connections
// dials it, however many failed before, and fails as site-unavailable with
// the dial's own error, counted once in call_failures_total.
func TestRefusedPeerIsDialedOnEveryCall(t *testing.T) {
	reg := metrics.New()
	cl := newClient("TEST", DefaultCallConfig(), reg)
	defer cl.close()
	const calls = 6
	for i := 1; i <= calls; i++ {
		_, _, err := cl.call(context.Background(), "dead", "127.0.0.1:1", Request{Kind: kindPing})
		var dial *net.OpError
		if !errors.Is(err, exec.ErrSiteUnavailable) || !errors.As(err, &dial) || dial.Op != "dial" {
			t.Fatalf("call %d: %v, want site-unavailable with the dial's error", i, err)
		}
	}
	lbl := metrics.Labels{Site: "TEST", Peer: "dead"}
	if got := reg.Snapshot().CounterValue("call_failures_total", lbl); got != calls {
		t.Errorf("call_failures_total = %d, want %d", got, calls)
	}
}
