package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
)

// allow is the admission half of breaker.Allow for assertions that do not
// care about probe-slot ownership.
func allow(b *breaker) bool {
	ok, _ := b.Allow()
	return ok
}

// TestBreakerLifecycle walks the full circuit: closed under the failure
// threshold, open at the threshold, half-open after the cooldown, re-open on
// a failed probe, closed on a successful one — with transitions observed.
func TestBreakerLifecycle(t *testing.T) {
	var transitions []string
	now := time.Unix(1000, 0)
	b := newBreaker(3, 5*time.Second, func(from, to string) {
		transitions = append(transitions, from+">"+to)
	})
	b.now = func() time.Time { return now }

	if st := b.State(); st != BreakerClosed {
		t.Fatalf("initial state = %s", st)
	}
	// Failures below the threshold keep the circuit closed.
	b.Failure()
	b.Failure()
	if !allow(b) || b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %s", b.State())
	}
	// The third consecutive failure opens it: calls fail fast.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %s", b.State())
	}
	if allow(b) {
		t.Fatal("open breaker admitted a call")
	}
	// After the cooldown exactly one probe is admitted.
	now = now.Add(6 * time.Second)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %s", st)
	}
	if !allow(b) {
		t.Fatal("half-open breaker refused the probe")
	}
	if allow(b) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// A failed probe re-opens the circuit for another cooldown.
	b.Failure()
	if b.State() != BreakerOpen || allow(b) {
		t.Fatalf("state after failed probe = %s", b.State())
	}
	// Next cooldown: a successful probe closes the circuit for good.
	now = now.Add(6 * time.Second)
	if !allow(b) {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != BreakerClosed || !allow(b) {
		t.Fatalf("state after successful probe = %s", b.State())
	}

	want := []string{
		"closed>open",
		"open>half-open",
		"half-open>open",
		"open>half-open",
		"half-open>closed",
	}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Errorf("transitions = %v, want %v", transitions, want)
	}
}

// TestBreakerDisabled: threshold 0 never opens (the client skips the breaker
// entirely, but the breaker itself must also stay sane).
func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := newBreaker(3, time.Second, nil)
	b.Failure()
	b.Failure()
	b.Success() // run broken: the counter starts over
	b.Failure()
	b.Failure()
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %s after interleaved successes", st)
	}
	b.Failure()
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %s after a fresh run of 3 failures", st)
	}
}

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

// TestClientBreakerFastFail: once the breaker opens, calls to the dead site
// fail immediately with ErrCircuitOpen instead of re-dialing.
func TestClientBreakerFastFail(t *testing.T) {
	cl := newClient("TEST", CallConfig{
		DialTimeout:      200 * time.Millisecond,
		BreakerThreshold: 2,
		breakerCooldown:  time.Hour,
	}, nil)
	defer cl.close()

	// 127.0.0.1:1 refuses connections; two failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := cl.call(context.Background(), "dead", "127.0.0.1:1", Request{Kind: kindPing}); !errors.Is(err, exec.ErrSiteUnavailable) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	start := time.Now()
	_, _, err := cl.call(context.Background(), "dead", "127.0.0.1:1", Request{Kind: kindPing})
	if !errors.Is(err, exec.ErrSiteUnavailable) {
		t.Fatalf("fast-fail error: %v", err)
	}
	if !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("fast-fail error = %v, want ErrCircuitOpen", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("open-breaker call took %v, expected immediate fast-fail", d)
	}
	if st := cl.BreakerStates()["dead"]; st != BreakerOpen {
		t.Errorf("breaker state = %s, want open", st)
	}
}

// TestZeroCallConfigHasNoBreaker: the zero CallConfig — what a ServerConfig
// or Coordinator that leaves Call unset runs with — is DefaultCallConfig
// without its breaker. Failing calls past the default threshold never open
// one.
func TestZeroCallConfigHasNoBreaker(t *testing.T) {
	got, want := CallConfig{}.withDefaults(), DefaultCallConfig()
	if got.DialTimeout != want.DialTimeout || got.CallTimeout != want.CallTimeout || got.BreakerThreshold != 0 {
		t.Errorf("zero CallConfig = %+v, want DefaultCallConfig %+v with BreakerThreshold 0", got, want)
	}
	cl := newClient("TEST", CallConfig{}, nil)
	defer cl.close()
	for i := 0; i <= want.BreakerThreshold; i++ {
		_, _, err := cl.call(context.Background(), "dead", "127.0.0.1:1", Request{Kind: kindPing})
		if !errors.Is(err, exec.ErrSiteUnavailable) || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call %d: %v, want a failed dial with no breaker", i, err)
		}
	}
	if states := cl.BreakerStates(); len(states) != 0 {
		t.Errorf("breaker states = %v, want none", states)
	}
}

// TestBreakerConcurrentProbers: when the cooldown elapses, any number of
// concurrent callers must resolve to exactly one admitted probe (the probe
// slot) with everyone else fast-failing as open — the half-open state must
// not thunder the recovering peer.
func TestBreakerConcurrentProbers(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(1, time.Second, nil)
	b.now = func() time.Time { return now }
	b.Failure() // threshold 1: open immediately
	now = now.Add(2 * time.Second)

	const callers = 32
	var (
		admitted atomic.Int64
		probes   atomic.Int64
		wg       sync.WaitGroup
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, probe := b.Allow()
			if ok {
				admitted.Add(1)
			}
			if probe {
				probes.Add(1)
			}
			if ok != probe {
				t.Errorf("half-open admission without probe ownership: ok=%v probe=%v", ok, probe)
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != 1 || probes.Load() != 1 {
		t.Fatalf("half-open admitted %d callers (%d probes), want exactly 1",
			admitted.Load(), probes.Load())
	}
}

// TestBreakerAbandonedProbeReleasesSlot: a probe whose call dies on its
// context produces no Success/Failure verdict; ProbeDone must release the
// slot so a later caller can probe — without it the breaker wedges in
// half-open forever.
func TestBreakerAbandonedProbeReleasesSlot(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(1, time.Second, nil)
	b.now = func() time.Time { return now }
	b.Failure()
	now = now.Add(2 * time.Second)

	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("first caller after cooldown: ok=%v probe=%v", ok, probe)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	b.ProbeDone() // the probe's context died: no verdict
	ok, probe = b.Allow()
	if !ok || !probe {
		t.Fatalf("caller after abandoned probe: ok=%v probe=%v — slot leaked", ok, probe)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %s", b.State())
	}
}

// TestClientAbandonedProbeDoesNotWedgeBreaker drives the leak end-to-end
// through the client: a half-open probe call whose context is already dead
// returns without a verdict, and the next caller must still be able to
// probe (and close the circuit) rather than fast-failing forever.
func TestClientAbandonedProbeDoesNotWedgeBreaker(t *testing.T) {
	_, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	addr := servers["DB1"].Addr()

	cl := newClient("TEST", CallConfig{
		DialTimeout:      200 * time.Millisecond,
		BreakerThreshold: 1,
		breakerCooldown:  10 * time.Millisecond,
	}, nil)
	defer cl.close()

	// Open the breaker with a failure against a dead port.
	if _, _, err := cl.call(context.Background(), "DB1", "127.0.0.1:1", Request{Kind: kindPing}); !errors.Is(err, exec.ErrSiteUnavailable) {
		t.Fatalf("seed failure: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // cooldown elapses: half-open

	// The admitted probe is abandoned by its context before doing anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cl.call(ctx, "DB1", addr, Request{Kind: kindPing}); !exec.IsInterrupted(err) {
		t.Fatalf("dead-context probe error = %v, want interrupted", err)
	}

	// The peer is actually fine at addr; the next caller must get the probe
	// slot and close the circuit.
	if _, _, err := cl.call(context.Background(), "DB1", addr, Request{Kind: kindPing}); err != nil {
		t.Fatalf("post-abandon probe failed: %v", err)
	}
	if st := cl.BreakerStates()["DB1"]; st != BreakerClosed {
		t.Fatalf("breaker state after successful probe = %s, want closed", st)
	}
}
