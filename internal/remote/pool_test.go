package remote

import (
	"bufio"
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/school"
)

// answerOnce reads one request frame off conn, runs between, and answers an
// empty response.
func answerOnce(t *testing.T, conn net.Conn, between func()) {
	in, err := readFrame(bufio.NewReader(conn), 0)
	if err != nil {
		t.Errorf("fake site: %v", err)
		return
	}
	in.release()
	between()
	out := newFrame()
	out.response(&Response{})
	if _, err := out.send(conn); err != nil {
		t.Errorf("fake site: %v", err)
	}
	out.release()
}

// deaf is a connection that ignores deadlines, so that an exchange whose
// cancel hook fires still reads its reply: the interleaving the hook's own
// goroutine produces when it loses the race with the reply.
type deaf struct{ net.Conn }

func (deaf) SetDeadline(time.Time) error { return nil }

// TestExchangeWhoseHookFiredIsNotReusable is the decision itself: an exchange
// that read a whole reply reports its connection unusable — a non-nil error —
// once the context's hook has started, because the hook may set its deadline
// at any later moment. The same exchange under a live context succeeds.
func TestExchangeWhoseHookFiredIsNotReusable(t *testing.T) {
	for _, fire := range []bool{false, true} {
		near, far := net.Pipe()
		ctx, cancel := context.WithCancel(context.Background())
		go answerOnce(t, far, func() {
			if fire {
				cancel()
			}
		})
		pc := &pconn{conn: deaf{near}, br: bufio.NewReader(near)}
		_, w, err := pc.exchange(ctx, &Request{Kind: kindPing}, time.Minute)
		if w.Received == 0 {
			t.Errorf("hook fired %v: the reply was not read", fire)
		}
		if fire != errors.Is(err, context.Canceled) {
			t.Errorf("hook fired %v: exchange returned %v", fire, err)
		}
		cancel()
		near.Close()
		far.Close()
	}
}

// TestCallClosesConnectionWhoseHookFired: the site cancels the caller's
// context between reading the request and answering, so the call ends either
// torn by the hook or complete with the hook already started. Both ways the
// connection is closed, not pooled, and the next call on the pool dials.
func TestCallClosesConnectionWhoseHookFired(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for between := cancel; ; between = func() {} {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			answerOnce(t, conn, between)
			conn.Close()
		}
	}()
	reg := metrics.New()
	cl := newClient("G", CallConfig{}, reg)
	defer cl.close()
	addr := ln.Addr().String()
	if _, _, err := cl.call(ctx, "DB1", addr, Request{Kind: kindPing}); !errors.Is(err, context.Canceled) {
		t.Errorf("call under a context cancelled mid-exchange: %v", err)
	}
	if n := cl.pool(addr).size(); n != 0 {
		t.Errorf("%d connection pooled after its cancel hook fired", n)
	}
	if _, _, err := cl.call(context.Background(), "DB1", addr, Request{Kind: kindPing}); err != nil {
		t.Errorf("the next call: %v", err)
	}
	if got := reg.Snapshot().CounterValue("pool_stale_total", metrics.Labels{Site: "G", Peer: "DB1"}); got != 0 {
		t.Errorf("pool_stale_total = %d", got)
	}
}

// TestTimedOutCallIsSentOnce: a site whose reply outlives the call timeout
// may hold the request already — a store it applied — so the call that timed
// out on a pooled connection fails within that one timeout, without sending
// the request again: no retry, and no stale-connection redial either.
func TestTimedOutCallIsSentOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The fake site answers the first frame it reads (the ping that pools a
	// connection) and swallows every later one.
	var frames atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					in, err := readFrame(br, 0)
					if err != nil {
						return
					}
					in.release()
					if frames.Add(1) > 1 {
						continue
					}
					out := newFrame()
					out.response(&Response{})
					_, _ = out.send(conn)
					out.release()
				}
			}()
		}
	}()
	const timeout = 100 * time.Millisecond
	reg := metrics.New()
	cl := newClient("G", CallConfig{CallTimeout: timeout}, reg)
	defer cl.close()
	addr := ln.Addr().String()
	if _, _, err := cl.call(context.Background(), "DB1", addr, Request{Kind: kindPing}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, _, err = cl.call(context.Background(), "DB1", addr, Request{Kind: kindStore, Store: sampleStudent})
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("store to a site that outlives the timeout: %v, want a timeout", err)
	}
	if elapsed > timeout*3/2 {
		t.Errorf("the call took %v, want under %v", elapsed, timeout*3/2)
	}
	eventually(t, "the site to read the store", func() bool { return frames.Load() > 1 })
	if n := frames.Load() - 1; n != 1 {
		t.Errorf("the site received the store %d times, want once", n)
	}
	if got := reg.Snapshot().CounterValue("pool_stale_total", metrics.Labels{Site: "G", Peer: "DB1"}); got != 0 {
		t.Errorf("pool_stale_total = %d after a timeout, want 0", got)
	}
}

// TestCancelAroundReplyNeverPoisonsThePool: calls whose contexts die at random
// moments around the reply share a one-connection pool with calls nobody
// cancels. The latter never fail and never find a stale connection — a late
// hook never lands on a connection someone else holds. Run under -race.
func TestCancelAroundReplyNeverPoisonsThePool(t *testing.T) {
	fx := school.New()
	srv, err := NewServer(ServerConfig{DB: fx.Databases["DB1"], Global: fx.Global, Tables: fx.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := metrics.New()
	cl := newClient("G", CallConfig{poolSize: 1}, reg)
	defer cl.close()
	req := Request{Kind: kindRetrieve, Query: school.Q1}

	// The reply's usual round trip sets the window the cancels are drawn from.
	start := time.Now()
	const warm = 50
	for i := 0; i < warm; i++ {
		if _, _, err := cl.call(context.Background(), "DB1", srv.Addr(), req); err != nil {
			t.Fatal(err)
		}
	}
	window := 2 * time.Since(start) / warm

	rng := rand.New(rand.NewPCG(1, 2))
	cancelled := 0
	for i := 0; i < 3000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(rng.Int64N(int64(window))), cancel)
		if _, _, err := cl.call(ctx, "DB1", srv.Addr(), req); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("call %d under a cancelled context: %v", i, err)
			}
			cancelled++
		}
		timer.Stop()
		cancel()
		if _, _, err := cl.call(context.Background(), "DB1", srv.Addr(), req); err != nil {
			t.Fatalf("call %d, which nobody cancelled: %v", i, err)
		}
	}
	t.Logf("window %v: %d of 3000 calls ended by their context", window, cancelled)
	snap := reg.Snapshot()
	for _, name := range []string{"pool_stale_total", "call_failures_total"} {
		if got := snap.CounterValue(name, metrics.Labels{Site: "G", Peer: "DB1"}); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}
