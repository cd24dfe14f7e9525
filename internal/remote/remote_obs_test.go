package remote

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/trace"
)

// TestSpanPropagationAcrossWire runs a BL query over TCP and checks the
// span context survives the wire hop twice: coordinator → site (serve spans
// parent on the coordinator's rpc spans, and the site's BL_C1+C2 step on its
// serve:local) and site → peer (a peer's serve:check parents on the
// dispatching site's serve:local, and its C3 step on that serve:check). The
// coordinator's recorded profile holds the whole tree; no tracer holds any of
// it afterwards.
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

	var qid string
	byName := map[string][]trace.Span{}
	ids := map[trace.SpanID]trace.Span{}
	for _, sp := range p.Spans {
		if sp.Parent == 0 {
			if sp.Algorithm != "BL" || sp.Query == "" {
				t.Errorf("root span = %+v", sp)
			}
			qid = sp.Query
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
		ids[sp.ID] = sp
	}
	if qid == "" {
		t.Fatal("coordinator recorded no query")
	}
	for _, sp := range p.Spans {
		if sp.Query != qid {
			t.Errorf("span %s @%s scoped to %q, want %q", sp.Name, sp.Site, sp.Query, qid)
		}
		if sp.Algorithm != "BL" {
			t.Errorf("site %s: span alg = %q", sp.Site, sp.Algorithm)
		}
	}
	// Each span kind hangs under the one it must, at the site it must.
	for _, link := range []struct{ child, parent string }{
		{"rpc:local", "BL_G1"},
		{"serve:local", "rpc:local"},
		{"BL_C1+C2", "serve:local"},
		{"serve:check", "serve:local"},
		{"C3", "serve:check"},
	} {
		if len(byName[link.child]) == 0 {
			t.Fatalf("no %s span in the profile:\n%s", link.child, p.RenderTree())
		}
		for _, sp := range byName[link.child] {
			parent, ok := ids[sp.Parent]
			if !ok || parent.Name != link.parent {
				t.Errorf("%s @%s hangs under %q, want %s", sp.Name, sp.Site, parent.Name, link.parent)
			}
			if link.child == "BL_C1+C2" || link.child == "C3" {
				if sp.Site != parent.Site {
					t.Errorf("%s @%s under %s @%s: a step runs at the site that served it",
						sp.Name, sp.Site, parent.Name, parent.Site)
				}
			}
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

// tracedEngine builds the school federation in process with a tracer and a
// flight recorder, and binds Q1 for it.
func tracedEngine(t *testing.T) (*exec.Engine, *obs.Recorder, *query.Bound) {
	t.Helper()
	fx := school.New()
	b, err := query.Bind(query.MustParse(school.Q1), fx.Global)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.RecorderConfig{Site: "G"})
	eng, err := exec.New(exec.Config{Global: fx.Global, Coordinator: "G", Databases: fx.Databases,
		Tables: fx.Mapping, Signatures: signature.Build(fx.Databases), Tracer: &trace.Tracer{}, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	return eng, rec, b
}

// TestSiteStepsMatchAcrossTransports: every strategy's phase-tagged spans
// are the Figure 8 steps, the same ones per site whether the federation runs
// in process or over TCP with traced sites — the server opens no steps of its
// own and its serve spans, like the coordinator's rpc spans, carry no phases.
func TestSiteStepsMatchAcrossTransports(t *testing.T) {
	eng, rec, b := tracedEngine(t)
	coord, _ := testCluster(t, nil, recordedCoordinator(), observed)

	// steps renders a profile's phase-tagged spans per site, sorted: the
	// multiset of (step, phases) each site performed.
	steps := func(p *trace.Profile) map[object.SiteID]string {
		per := map[object.SiteID][]string{}
		for _, sp := range p.Spans {
			if sp.Phases == "" {
				continue
			}
			if strings.HasPrefix(sp.Name, "rpc:") || strings.HasPrefix(sp.Name, "serve:") {
				t.Errorf("%s: transport span %s @%s carries phases %q", p.Alg, sp.Name, sp.Site, sp.Phases)
			}
			per[sp.Site] = append(per[sp.Site], sp.Name+" "+sp.Phases)
		}
		out := map[object.SiteID]string{}
		for site, s := range per {
			slices.Sort(s)
			out[site] = strings.Join(s, ", ")
		}
		return out
	}
	// The Figure 8 inventory, as exec's own trace test lists it.
	inventory := map[exec.Algorithm][]string{
		exec.CA: {"CA_G1", "CA_C1", "CA_G2", "CA_G3"},
		exec.BL: {"BL_G1", "BL_C1+C2", "C3", "BL_G2"},
		exec.PL: {"PL_G1", "PL_C1", "PL_C2", "C3", "PL_G2"},
	}
	for _, alg := range exec.AllAlgorithms() {
		if _, _, err := eng.Run(fabric.NewReal(fabric.DefaultRates()), alg, b); err != nil {
			t.Fatalf("%v in process: %v", alg, err)
		}
		inproc := rec.Last()
		if _, _, err := coord.Query(school.Q1, alg); err != nil {
			t.Fatalf("%v over TCP: %v", alg, err)
		}
		tcp := coord.Recorder.Last()
		if inproc == nil || tcp == nil || inproc.Alg != alg.String() || tcp.Alg != alg.String() {
			t.Fatalf("%v: profiles %v and %v", alg, inproc, tcp)
		}
		want, got := steps(inproc), steps(tcp)
		if !maps.Equal(want, got) {
			t.Errorf("%v: phase-tagged steps per site\nin process: %v\nover TCP:   %v", alg, want, got)
		}
		seen := map[string]bool{}
		for _, sp := range tcp.Spans {
			seen[sp.Name] = true
		}
		for _, step := range inventory[alg] {
			if !seen[step] {
				t.Errorf("%v over TCP: step %s missing from the profile:\n%s", alg, step, tcp.RenderTree())
			}
		}
	}
}

// TestStepSpansLieInsideTheirTransportSpans: over TCP a site's Figure 8
// steps are stamped on its runtime's clock and the rpc and serve spans around
// them by the tracer. On the one span clock every span of a traced BL and PL
// query lies inside its direct parent, in process and over TCP, and so inside
// each of its rpc: and serve: ancestors. A check leg outlives the step that
// dispatched it, so it hangs under the span that encloses both.
func TestStepSpansLieInsideTheirTransportSpans(t *testing.T) {
	eng, rec, b := tracedEngine(t)
	coord, _ := testCluster(t, nil, recordedCoordinator(), observed)
	for _, alg := range []exec.Algorithm{exec.BL, exec.PL} {
		if _, _, err := eng.Run(fabric.NewReal(fabric.DefaultRates()), alg, b); err != nil {
			t.Fatalf("%v in process: %v", alg, err)
		}
		inproc := rec.Last()
		if _, _, err := coord.Query(school.Q1, alg); err != nil {
			t.Fatalf("%v over TCP: %v", alg, err)
		}
		for transport, p := range map[string]*trace.Profile{"in process": inproc, "over TCP": coord.Recorder.Last()} {
			byID := map[trace.SpanID]trace.Span{}
			for _, sp := range p.Spans {
				byID[sp.ID] = sp
			}
			nested, served := 0, 0
			for _, sp := range p.Spans {
				parent, ok := byID[sp.Parent]
				if !ok {
					continue
				}
				nested++
				if sp.Start < parent.Start || sp.End > parent.End || sp.Open() {
					t.Errorf("%v %s: %s @%s (%.3f..%.3f) escapes its parent %s @%s (%.3f..%.3f)", alg, transport,
						sp.Name, sp.Site, sp.Start, sp.End, parent.Name, parent.Site, parent.Start, parent.End)
				}
				if strings.HasPrefix(parent.Name, "serve:") && sp.Phases != "" {
					served++
				}
			}
			if nested == 0 || (transport == "over TCP" && served == 0) {
				t.Errorf("%v %s: %d nested spans, %d steps under a serve span:\n%s",
					alg, transport, nested, served, p.RenderTree())
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
		if sp.Open() {
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

// TestUntracedCoordinatorReceivesNoSpans: a coordinator without a tracer
// receives exactly the same bytes from traced sites as from untraced ones, for
// every strategy. A site ships its spans only to a caller that has a span to
// hang them on; it used to ship them whenever the request carried a query ID,
// and the coordinator dropped them unread.
func TestUntracedCoordinatorReceivesNoSpans(t *testing.T) {
	received := func(alg exec.Algorithm, configure func(object.SiteID, *ServerConfig)) int64 {
		coord, _ := testCluster(t, nil, &Coordinator{Metrics: metrics.New()}, configure)
		if _, _, err := coord.Query(school.Q1, alg); err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, smp := range coord.Metrics.Snapshot().Samples {
			if smp.Name == "net_bytes_total" && smp.Labels.Peer == string(coord.ID) {
				n += smp.Value
			}
		}
		return n
	}
	for _, alg := range exec.Algorithms() {
		bare := received(alg, func(_ object.SiteID, cfg *ServerConfig) { cfg.Metrics = metrics.New() })
		traced := received(alg, observed)
		if bare == 0 || traced != bare {
			t.Errorf("%s: the untraced coordinator received %d bytes from traced sites, %d from untraced ones",
				alg, traced, bare)
		}
	}
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
// the per-site event counts, and none for the coordinator, which reads no
// extents.
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

// TestCalibrationLoopOverTCP pins the measurement half of calibrating site
// rates over the wire: after a BL and a PL query over TCP, every component
// site that answered appears in the coordinator's recorded profile with the
// disk bytes it read, so a site's cost can be re-rated from what it did.
func TestCalibrationLoopOverTCP(t *testing.T) {
	coord, _ := testCluster(t, nil, recordedCoordinator(), observed)

	for _, alg := range []exec.Algorithm{exec.BL, exec.PL} {
		ans, _, err := coord.Query(school.Q1, alg)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Degraded {
			t.Fatalf("%v: healthy cluster answered degraded: %+v", alg, ans.Unavailable)
		}
		p := coord.Recorder.Last()
		if p == nil {
			t.Fatalf("%v: no profile recorded", alg)
		}
		answering := 0
		for _, site := range p.Sites {
			if site == coord.ID {
				continue
			}
			answering++
			if io := p.IO[string(site)]; io.DiskBytes <= 0 {
				t.Errorf("%v: %s answered but the profile's IO has no disk bytes: %+v", alg, site, io)
			}
		}
		if answering == 0 {
			t.Fatalf("%v: the profile names no answering component site: %v", alg, p.Sites)
		}
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
	cl := newClient("TEST", CallConfig{CallTimeout: 200 * time.Millisecond}, nil)
	defer cl.close()

	start := time.Now()
	_, _, err = cl.call(context.Background(), "silent", ln.Addr().String(), Request{Kind: kindPing})
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
