package main

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/remote"
	"github.com/hetfed/hetfed/internal/school"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("DB1=127.0.0.1:7101, DB2=127.0.0.1:7102")
	if err != nil {
		t.Fatalf("parsePeers: %v", err)
	}
	if peers["DB1"] != "127.0.0.1:7101" || peers["DB2"] != "127.0.0.1:7102" {
		t.Errorf("peers = %v", peers)
	}
	if p, err := parsePeers(""); err != nil || len(p) != 0 {
		t.Errorf("empty peers = %v, %v", p, err)
	}
	for _, bad := range []string{"DB1", "=addr", "DB1=", "DB1=a,=b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

// TestRunFlagErrors: a command line that cannot mean what it asks is refused
// before anything is opened — the data directory of a refused coordinator is
// never created.
func TestRunFlagErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	for name, args := range map[string][]string{
		"no mode":                      nil,
		"unknown site":                 {"-site", "DB9"},
		"unknown algorithm":            {"-coordinator", "-alg", "NOPE"},
		"bad peers":                    {"-coordinator", "-peers", "garbage"},
		"both modes":                   {"-site", "DB1", "-coordinator"},
		"fsync without data-dir":       {"-site", "DB1", "-fsync"},
		"bad fault at a site":          {"-site", "DB1", "-data-dir", dir, "-fault", "zap:DB2"},
		"bad fault at the coordinator": {"-coordinator", "-data-dir", dir, "-fault", "delay:DB2"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s accepted: %v", name, args)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("refused command lines left %s behind (stat: %v)", dir, err)
	}
	// The strategy is one the caller names; there is no selector to pick one.
	if err := run([]string{"-coordinator", "-alg", "adaptive"}); err == nil ||
		!strings.Contains(err.Error(), "want CA, BL, PL, SBL or SPL") {
		t.Errorf("-alg adaptive: err %v, want the strategy list", err)
	}
}

// TestRestartedSiteLogsServedExtent: a durable site that took an insert and
// was restarted serves — and says it serves — the recovered extent, not the
// fixture it was first seeded from.
func TestRestartedSiteLogsServedExtent(t *testing.T) {
	fx := school.New()
	bundle := &fedfile.Federation{Global: fx.Global, Databases: fx.Databases, Tables: fx.Mapping}
	c := &cmdline{site: "DB2", listen: "127.0.0.1:0"}
	c.wal.Dir = t.TempDir()
	boot := func() (*siteRuntime, string) {
		t.Helper()
		var logged bytes.Buffer
		rt, err := startSite(bundle, nil, c, slog.New(slog.NewTextHandler(&logged, nil)))
		if err != nil {
			t.Fatalf("startSite: %v", err)
		}
		_, line, _ := strings.Cut(logged.String(), `msg="site serving"`)
		for _, attr := range strings.Fields(line) {
			if objects, ok := strings.CutPrefix(attr, "objects="); ok {
				return rt, objects
			}
		}
		return rt, ""
	}
	fixture := fx.Databases["DB2"].Len()
	rt, objects := boot()
	if objects != strconv.Itoa(fixture) {
		t.Errorf("first boot logged objects=%s, want the fixture's %d", objects, fixture)
	}
	matcher := isomer.NewMatcher(fx.Global)
	if err := matcher.Adopt(fx.Databases, fx.Mapping.Clone()); err != nil {
		t.Fatal(err)
	}
	coord := &remote.Coordinator{ID: "G", Global: fx.Global, Tables: matcher.Tables(), Matcher: matcher,
		Sites: map[object.SiteID]string{"DB2": rt.Server.Addr()}}
	_, err := coord.Insert("DB2", object.New("t9'", "Teacher", map[string]object.Value{
		"name": object.Str("Haley"), "speciality": object.Str("database"),
	}))
	coord.Close()
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt, objects = boot()
	defer rt.Close()
	if objects != strconv.Itoa(fixture+1) {
		t.Errorf("after one insert and a restart the site logged objects=%s, want %d", objects, fixture+1)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed alongside fn's error.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestCoordinatorAgainstCluster starts the school sites in-process (via the
// remote package, as runSite would) and drives runCoordinator against them.
func TestCoordinatorAgainstCluster(t *testing.T) {
	bundle, _ := loadFederation("")
	cluster, err := remote.StartCluster(remote.ClusterConfig{Federation: bundle})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	addrs := cluster.Addrs()
	out, err := captureStdout(t, func() error {
		return runCoordinator(bundle, addrs, &cmdline{query: school.Q1, alg: "BL"})
	})
	if err != nil {
		t.Fatalf("runCoordinator: %v", err)
	}
	if !strings.Contains(out, "Hedy, Kelly") || !strings.Contains(out, "Tony, Haley") {
		t.Errorf("coordinator output wrong:\n%s", out)
	}

	// An unreachable cluster no longer errors out: the query degrades to a
	// fully-maybe partial answer (every student's root copies are behind
	// dead sites, so they all come back as synthesized all-unknown rows).
	bad := map[object.SiteID]string{"DB1": "127.0.0.1:1", "DB2": "127.0.0.1:1", "DB3": "127.0.0.1:1"}
	out, err = captureStdout(t, func() error {
		return runCoordinator(bundle, bad,
			&cmdline{query: school.Q1, alg: "BL", call: remote.CallConfig{}})
	})
	if err != nil {
		t.Fatalf("unreachable cluster failed instead of degrading: %v", err)
	}
	if !strings.Contains(out, "DEGRADED") || !strings.Contains(out, "certain results (0)") {
		t.Errorf("unreachable-cluster output not degraded:\n%s", out)
	}
}

// TestCoordinatorServesAfterAnswer: with -metrics-addr a coordinator prints
// its answer and then keeps its observability surface up until it is
// signalled, as a site does — /healthz and the query's trace can be read
// after the one query.
// (Without -metrics-addr it exits: TestCoordinatorAgainstCluster returns.)
func TestCoordinatorServesAfterAnswer(t *testing.T) {
	bundle, _ := loadFederation("")
	cluster, err := remote.StartCluster(remote.ClusterConfig{Federation: bundle})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	addrs := cluster.Addrs()
	// Reserve a port for the surface: the test must know it before the
	// coordinator logs it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	obsAddr := ln.Addr().String()
	ln.Close()

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	answered := make(chan struct{})
	go func() {
		sc, printed := bufio.NewScanner(r), false
		for sc.Scan() {
			if !printed && strings.HasPrefix(sc.Text(), "maybe results") {
				printed = true
				close(answered)
			}
		}
	}()
	c := &cmdline{query: school.Q1, alg: "BL", metricsAddr: obsAddr}
	done := make(chan error, 1)
	go func() { done <- runCoordinator(bundle, addrs, c) }()

	select {
	case <-answered:
	case err := <-done:
		t.Fatalf("coordinator returned before printing an answer: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no answer within 10s")
	}
	if code, body := httpGet(t, obsAddr, "/healthz"); code != http.StatusOK || !strings.Contains(body, `"site":"G"`) {
		t.Errorf("/healthz after the answer: status %d, body %q", code, body)
	}
	if code, body := httpGet(t, obsAddr, "/debug/trace/last"); code != http.StatusOK || !strings.Contains(body, "alg=BL") {
		t.Errorf("/debug/trace/last after the answer: status %d, body %q", code, body)
	}
	select {
	case err := <-done:
		t.Fatalf("coordinator with -metrics-addr exited after its query: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("interrupted coordinator: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator kept serving after SIGINT")
	}
	w.Close()
}

// TestObservabilitySurface is the end-to-end observability check: three
// instrumented sites with live /metrics endpoints, a BL query driven through
// the hetserve coordinator path, and then the span trees, per-site metrics
// and HTTP surface are all inspected.
func TestObservabilitySurface(t *testing.T) {
	bundle, _ := loadFederation("")
	logger := slog.New(slog.DiscardHandler)

	// The sites as runSite instruments them, wired to each other.
	c := &cmdline{metricsAddr: "127.0.0.1:0"}
	rts := make(map[object.SiteID]*siteRuntime)
	cluster, err := remote.StartCluster(remote.ClusterConfig{Federation: bundle,
		Configure: func(site object.SiteID, cfg *remote.ServerConfig) { rts[site], _ = c.instrument(site, cfg, logger) }})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	addrs := cluster.Addrs()
	for site, rt := range rts {
		rt.Site = &remote.Site{Server: cluster.Server(site), DB: bundle.Databases[site]}
		if err := rt.serve(c, logger); err != nil {
			t.Fatal(err)
		}
		defer rt.Obs.Close()
	}

	// (c) /healthz answers 200 on every site before any query.
	for site, rt := range rts {
		code, body := httpGet(t, rt.Obs.Addr(), "/healthz")
		if code != http.StatusOK {
			t.Errorf("healthz %s: status %d", site, code)
		}
		if !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, string(site)) {
			t.Errorf("healthz %s: body %q", site, body)
		}
	}

	// Counters start at zero.
	before := rts["DB1"].Metrics.Snapshot()
	if n := before.CounterValue("requests_total", metrics.Labels{Site: "DB1", Alg: "BL"}); n != 0 {
		t.Errorf("requests_total before query = %d, want 0", n)
	}

	// Drive a BL query through the hetserve coordinator path with the
	// diagnostic flags on.
	var peerList []string
	for _, site := range school.Sites {
		peerList = append(peerList, string(site)+"="+addrs[site])
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-coordinator", "-peers", strings.Join(peerList, ","),
			"-alg", "BL", "-trace", "-metrics"})
	})
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	for _, want := range []string{
		"Hedy, Kelly", "Tony, Haley", // the paper's Q1 answer still comes out
		"span tree", "@G", "rpc:local", "[I]", // -trace: tree with the certify (I) phase
		"coordinator metrics:", "queries_total", // -metrics: snapshot text
	} {
		if !strings.Contains(out, want) {
			t.Errorf("coordinator output missing %q:\n%s", want, out)
		}
	}

	// (a) Every site's serve spans, and the Figure 8 steps it performed
	// beneath them, reached a recorded profile (a site records one per local
	// request, the peer checks it dispatched included), parented on the
	// coordinator's (or a dispatching peer's) span, and the O and P phases
	// show up site-side on the steps, never on a serve span; I is the
	// coordinator's certify span, asserted on stdout above.
	// A site records its profile after the response is on the wire: poll
	// for the two root sites' local requests.
	for _, site := range []object.SiteID{"DB1", "DB2"} {
		for deadline := time.Now().Add(5 * time.Second); len(rts[site].Recorder.Profiles()) == 0 && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
		}
	}
	sitesWithSpans := map[object.SiteID]bool{}
	phases := map[byte]bool{}
	for site, rt := range rts {
		for _, p := range rt.Recorder.Profiles() {
			for _, sp := range p.Spans {
				if serve := strings.HasPrefix(sp.Name, "serve:"); serve == (sp.Phases != "") {
					t.Errorf("site %s: span %q with phases %q is neither a serve span nor a step", site, sp.Name, sp.Phases)
				}
				if sp.Parent == 0 || sp.Query != p.ID {
					t.Errorf("site %s: span %s not parented on the caller's span of query %s", site, sp.Name, p.ID)
				}
				sitesWithSpans[sp.Site] = true
				for i := 0; i < len(sp.Phases); i++ {
					phases[sp.Phases[i]] = true
				}
			}
		}
	}
	if len(sitesWithSpans) < 3 {
		t.Errorf("query spans reached %d sites, want at least 3 (%v)", len(sitesWithSpans), sitesWithSpans)
	}
	if !phases['O'] || !phases['P'] {
		t.Errorf("site-side phase coverage = %v, want O and P", phases)
	}

	// (b) Each site's registry holds a nonzero per-algorithm latency
	// histogram and nonzero per-site-pair byte counters, and the /metrics
	// endpoint serves them.
	// A server books a request's metrics after the response is on the wire,
	// so the coordinator returning does not mean they are there yet: poll.
	booked := func(site object.SiteID) (latency bool, pairBytes int64) {
		snap := rts[site].Metrics.Snapshot()
		s, ok := snap.Get("request_latency_us", metrics.Labels{Site: string(site), Alg: "BL"})
		for _, sample := range snap.Samples {
			if sample.Name == "net_bytes_total" && sample.Labels.Site == string(site) &&
				sample.Labels.Peer != "" && sample.Labels.Alg == "BL" {
				pairBytes += int64(sample.Value)
			}
		}
		return ok && s.Hist != nil && s.Hist.Count > 0, pairBytes
	}
	for site, rt := range rts {
		var latency bool
		var pairBytes int64
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			if latency, pairBytes = booked(site); latency && pairBytes > 0 {
				break
			}
		}
		if !latency {
			t.Errorf("site %s: no BL request latency histogram", site)
		}
		if pairBytes == 0 {
			t.Errorf("site %s: no per-site-pair bytes recorded", site)
		}

		code, body := httpGet(t, rt.Obs.Addr(), "/metrics?format=text")
		if code != http.StatusOK {
			t.Errorf("metrics %s: status %d", site, code)
		}
		for _, want := range []string{"requests_total", "request_latency_us", "net_bytes_total"} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics %s: missing %q in:\n%s", site, want, body)
			}
		}
		code, body = httpGet(t, rt.Obs.Addr(), "/metrics")
		if code != http.StatusOK || !strings.Contains(body, `"samples"`) {
			t.Errorf("metrics %s: JSON form status %d body %.200q", site, code, body)
		}
	}

	// Counters advanced after the query (satellite: the surface is live).
	after := rts["DB1"].Metrics.Snapshot()
	if n := after.CounterValue("requests_total", metrics.Labels{Site: "DB1", Alg: "BL"}); n == 0 {
		t.Error("requests_total did not advance after the query")
	}

	// The last-query span tree is browsable over HTTP.
	code, body := httpGet(t, rts["DB1"].Obs.Addr(), "/debug/trace/last")
	if code != http.StatusOK || !strings.Contains(body, "serve:") {
		t.Errorf("debug/trace/last: status %d body %q", code, body)
	}
}

// TestHelpIsNotAFailure: `hetserve -h` prints the usage and exits 0, with no
// error line after it. main exits, so it runs in a child process.
func TestHelpIsNotAFailure(t *testing.T) {
	if args := os.Getenv("HETSERVE_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"hetserve"}, strings.Fields(args)...)
		main()
		return
	}
	child := osexec.Command(os.Args[0], "-test.run=^TestHelpIsNotAFailure$")
	child.Env = append(os.Environ(), "HETSERVE_MAIN_ARGS=-h")
	var stderr strings.Builder
	child.Stderr = &stderr
	if err := child.Run(); err != nil {
		t.Fatalf("hetserve -h: %v\n%s", err, stderr.String())
	}
	help := stderr.String()
	if !strings.HasPrefix(help, "Usage of hetserve:") || strings.Contains(help, "\nhetserve: ") {
		t.Errorf("hetserve -h printed, want the usage alone:\n%s", help)
	}
	// The call policy adds only -call-timeout and -dial-timeout: 19 flags in all.
	if n := strings.Count(help, "\n  -"); n != 19 {
		t.Errorf("hetserve -h lists %d flags, want 19:\n%s", n, help)
	}
}
