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
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

// TestSpanPropagationAcrossWire runs a BL query over TCP and checks the
// span context survives the wire hop twice: coordinator → site (serve spans
// parent on the coordinator's rpc spans) and site → peer (check spans
// parent on the dispatching site's serve span). The coordinator's recorded
// profile holds the whole tree; no tracer holds any of it afterwards.
func TestSpanPropagationAcrossWire(t *testing.T) {
	coord, cluster := testCluster(t, nil, recordedCoordinator(), observed)
	servers := serversOf(cluster)

	if _, _, err := coord.Query(school.Q1, exec.BL); err != nil {
		t.Fatal(err)
	}
	p := coord.Recorder.Last()
	if p == nil {
		t.Fatal("no profile recorded")
	}

	// The coordinator side: a root span plus rpc spans, all sharing one query ID.
	var qid string
	rpcIDs := map[trace.SpanID]bool{}
	for _, sp := range p.Spans {
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
	for _, sp := range p.Spans {
		if sp.Query != qid {
			t.Errorf("span %s @%s scoped to %q, want %q", sp.Name, sp.Site, sp.Query, qid)
		}
		if sp.Algorithm != "BL" {
			t.Errorf("site %s: span alg = %q", sp.Site, sp.Algorithm)
		}
		switch sp.Name {
		case "serve:local":
			localIDs[sp.ID] = true
			localSpans = append(localSpans, sp)
		case "serve:check":
			checkSpans = append(checkSpans, sp)
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
	tracers := []*trace.Tracer{coord.Tracer}
	for _, srv := range servers {
		tracers = append(tracers, srv.cfg.Tracer)
	}
	for _, sp := range p.Spans {
		for _, tr := range tracers {
			if tr.Take(sp.ID) != nil {
				t.Errorf("a tracer still holds %s @%s after the query", sp.Name, sp.Site)
			}
		}
	}
}

// TestTracedPLSpansReachProfileOnce: over TCP, every span of a traced PL
// query — the coordinator's steps, each site's serve span and the serve spans
// of the peer checks it dispatched — reaches the coordinator's profile
// exactly once, closed, in one tree. A site answering a peer's check while
// its own serve:local of the same query still runs ships the check's spans
// alone.
func TestTracedPLSpansReachProfileOnce(t *testing.T) {
	coord, cluster := testCluster(t, nil, recordedCoordinator(), observed)
	servers := serversOf(cluster)
	if _, _, err := coord.Query(school.Q1, exec.PL); err != nil {
		t.Fatal(err)
	}
	p := coord.Recorder.Last()
	if p == nil {
		t.Fatal("no profile recorded")
	}
	times := map[trace.SpanID]int{}
	for _, sp := range p.Spans {
		times[sp.ID]++
	}
	roots, serves := 0, 0
	for _, sp := range p.Spans {
		if times[sp.ID] != 1 {
			t.Errorf("%s @%s reached the profile %d times", sp.Name, sp.Site, times[sp.ID])
		}
		if sp.End.IsZero() {
			t.Errorf("%s @%s reached the profile open", sp.Name, sp.Site)
		}
		if times[sp.Parent] == 0 {
			roots++
		}
		if strings.HasPrefix(sp.Name, "serve:") {
			serves++
		}
	}
	if roots != 1 {
		t.Errorf("the profile holds %d trees, want 1:\n%s", roots, p.RenderTree())
	}
	// Every request the sites served for the query is one serve span.
	served := func() (n int64) {
		for site, srv := range servers {
			n += srv.cfg.Metrics.Snapshot().CounterValue("requests_total", metrics.Labels{Site: string(site), Alg: "PL"})
		}
		return n
	}
	eventually(t, fmt.Sprintf("%d PL requests served, as the profile's serve spans", serves),
		func() bool { return served() == int64(serves) })
}

// TestTracedQueryCostIsFlatInHistory: with every tracer capped at 4 096 spans
// and every recorder on, as hetserve wires a cluster, a traced query
// allocates what it did on fresh tracers however many traced queries ran
// before it. Each request hands its spans off once, so no tracer grows with
// history; a tracer that each request copied whole to find its own spans
// made the query after 2 000 others allocate many times the tenth's.
func TestTracedQueryCostIsFlatInHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	capped := func() *trace.Tracer {
		tr := &trace.Tracer{}
		tr.SetLimit(4096)
		return tr
	}
	coord, _ := testCluster(t, nil, &Coordinator{Tracer: capped(), Metrics: metrics.New()},
		func(site object.SiteID, cfg *ServerConfig) {
			cfg.Tracer, cfg.Metrics = capped(), metrics.New()
			cfg.Recorder = obs.NewRecorder(obs.RecorderConfig{Site: string(site), Metrics: cfg.Metrics})
		})
	coord.Recorder = obs.NewRecorder(obs.RecorderConfig{Site: "G", Metrics: coord.Metrics})
	rotation := []exec.Algorithm{exec.CA, exec.BL, exec.PL}
	run := func(n int) {
		for i := range n {
			if _, _, err := coord.Query(school.Q1, rotation[i%len(rotation)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	perQuery := func() float64 {
		return testing.AllocsPerRun(5, func() { run(len(rotation)) }) / float64(len(rotation))
	}
	run(10)
	fresh := perQuery()
	run(2000)
	after := perQuery()
	t.Logf("allocs per traced query: %.0f after 10 queries, %.0f after 2 000 more", fresh, after)
	if after > 1.5*fresh {
		t.Errorf("a traced query allocates %.0f after 2 000 queries, %.1f× the %.0f it did after 10; want ≤ 1.5×",
			after, after/fresh, fresh)
	}
}

// TestRemoteProfileCarriesSiteIO: the serving sites stamp disk_bytes/cpu_ops
// on their spans, those spans ship back over the wire, and BuildProfile
// attributes them to the site — so the coordinator's recorded profile carries
// the per-site event counts the adaptive calibrator divides by.
func TestRemoteProfileCarriesSiteIO(t *testing.T) {
	coord, _ := testCluster(t, nil, recordedCoordinator(), observed)

	if _, _, err := coord.Query(school.Q1, exec.BL); err != nil {
		t.Fatal(err)
	}
	p := coord.Recorder.Last()
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
