package remote

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

// TestSpanPropagationAcrossWire runs a BL query over TCP and checks the
// span context survives the wire hop twice: coordinator → site (serve spans
// parent on the coordinator's rpc spans) and site → peer (check spans
// parent on the dispatching site's serve span).
func TestSpanPropagationAcrossWire(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)

	if _, _, err := coord.Query(school.Q1, exec.BL); err != nil {
		t.Fatal(err)
	}

	// The coordinator side: a root span plus rpc spans, all sharing one query ID.
	var qid string
	rpcIDs := map[trace.SpanID]bool{}
	for _, sp := range coord.Tracer.Spans() {
		if sp.Parent == 0 {
			if sp.Algorithm != "BL" || sp.Query == "" {
				t.Errorf("root span = %+v", sp)
			}
			qid = sp.Query
		}
		if strings.HasPrefix(sp.Name, "rpc:") {
			rpcIDs[sp.ID] = true
		}
	}
	if qid == "" || len(rpcIDs) == 0 {
		t.Fatalf("coordinator recorded no query (qid=%q, %d rpc spans)", qid, len(rpcIDs))
	}

	// Server side: serve:local spans must adopt the propagated rpc span IDs
	// as parents; serve:check spans must adopt the dispatching site's
	// serve:local span ID.
	localIDs := map[trace.SpanID]bool{}
	var localSpans, checkSpans []trace.Span
	for site, srv := range servers {
		for _, sp := range srv.cfg.Tracer.Spans() {
			if sp.Query != qid {
				continue
			}
			if sp.Algorithm != "BL" {
				t.Errorf("site %s: span alg = %q", site, sp.Algorithm)
			}
			switch sp.Name {
			case "serve:local":
				localIDs[sp.ID] = true
				localSpans = append(localSpans, sp)
			case "serve:check":
				checkSpans = append(checkSpans, sp)
			}
		}
	}
	if len(localSpans) == 0 || len(checkSpans) == 0 {
		t.Fatalf("spans: %d local, %d check", len(localSpans), len(checkSpans))
	}
	for _, sp := range localSpans {
		if !rpcIDs[sp.Parent] {
			t.Errorf("serve:local @%s parent %d not among the coordinator's rpc spans %v",
				sp.Site, sp.Parent, rpcIDs)
		}
		if sp.Phases != "PO" {
			t.Errorf("serve:local phases = %q, want PO", sp.Phases)
		}
	}
	for _, sp := range checkSpans {
		if !localIDs[sp.Parent] {
			t.Errorf("serve:check @%s parent %d not among the serve:local spans %v",
				sp.Site, sp.Parent, localIDs)
		}
		if sp.Phases != "O" {
			t.Errorf("serve:check phases = %q, want O", sp.Phases)
		}
	}
}

// TestRemoteProfileCarriesSiteIO: the serving sites stamp disk_bytes/cpu_ops
// on their spans, those spans ship back over the wire, and BuildProfile
// attributes them to the site — so the coordinator's recorded profile carries
// the per-site event counts the adaptive calibrator divides by.
func TestRemoteProfileCarriesSiteIO(t *testing.T) {
	coord, _ := testCluster(t, nil, observedCoordinator(), observed)
	rec := obs.NewRecorder(obs.RecorderConfig{Site: "G"})
	coord.Recorder = rec

	if _, _, err := coord.Query(school.Q1, exec.BL); err != nil {
		t.Fatal(err)
	}
	p := rec.Last()
	if p == nil {
		t.Fatal("no profile recorded")
	}
	if len(p.IO) == 0 {
		t.Fatal("profile has no per-site IO counts")
	}
	var sawWork bool
	for site, io := range p.IO {
		if site == "G" {
			t.Errorf("coordinator %q attributed IO %+v; it reads no extents", site, io)
		}
		if io.DiskBytes > 0 && io.CPUOps > 0 {
			sawWork = true
		}
	}
	if !sawWork {
		t.Errorf("no serving site reported both disk and cpu counts: %+v", p.IO)
	}
}

// TestUnknownKindCountsError: a request kind the server does not serve —
// garbage, or "checkbatch", which protocol version 2 had — is answered with
// an error and shows up in the server's error counter.
func TestUnknownKindCountsError(t *testing.T) {
	_, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	srv := servers["DB1"]

	for i, kind := range []string{"nonsense", "checkbatch"} {
		if _, err := testCall(t, srv.Addr(), Request{Kind: kind}); err == nil ||
			!strings.Contains(err.Error(), "unknown request kind") {
			t.Fatalf("kind %q: %v", kind, err)
		}
		// The failed request is counted as an error, and still counted and timed.
		for _, name := range []string{"request_errors_total", "requests_total"} {
			eventually(t, fmt.Sprintf("%s = %d", name, i+1), func() bool {
				return srv.cfg.Metrics.Snapshot().CounterValue(name, metrics.Labels{Site: "DB1"}) == int64(i+1)
			})
		}
	}
}

// TestCallTimeoutOnDeadPeer: a peer that accepts the connection but never
// answers must fail the call within the deadline instead of hanging it.
func TestCallTimeoutOnDeadPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow the request and go silent until the test ends.
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}(conn)
		}
	}()

	// Timeouts are per-client config now (no mutable package globals), so
	// a tight deadline here cannot race other tests.
	cl := newClient("TEST", CallConfig{CallTimeout: 200 * time.Millisecond, Attempts: 1}, nil)
	defer cl.close()

	start := time.Now()
	_, _, err = cl.call("silent", ln.Addr().String(), Request{Kind: kindPing})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call to a silent peer succeeded")
	}
	if elapsed > 5*time.Second {
		t.Errorf("call took %v, deadline did not bite", elapsed)
	}
	if !errors.Is(err, exec.ErrSiteUnavailable) {
		t.Errorf("error is not a site failure: %v", err)
	}
	if !strings.Contains(err.Error(), "receive") {
		t.Errorf("unexpected error: %v", err)
	}
}
