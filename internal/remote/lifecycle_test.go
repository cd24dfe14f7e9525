package remote

import (
	"runtime"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

// schoolFed is a fresh copy of the paper's school federation.
func schoolFed() *fedfile.Federation {
	fx := school.New()
	return &fedfile.Federation{Schemas: fx.Schemas, Global: fx.Global, Databases: fx.Databases, Tables: fx.Mapping}
}

// testCluster serves fed (nil: the school federation) through StartCluster
// until the test ends, wired to coord (nil: a plain coordinator), every
// site's config passed through configure.
func testCluster(t testing.TB, fed *fedfile.Federation, coord *Coordinator,
	configure func(object.SiteID, *ServerConfig)) (*Coordinator, *Cluster) {
	t.Helper()
	if fed == nil {
		fed = schoolFed()
	}
	if coord == nil {
		coord = &Coordinator{}
	}
	cl, err := StartCluster(ClusterConfig{Federation: fed, Configure: configure, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return coord, cl
}

// observed gives a site a tracer and a metrics registry of its own.
func observed(_ object.SiteID, cfg *ServerConfig) {
	cfg.Tracer, cfg.Metrics = &trace.Tracer{}, metrics.New()
}

// observedCoordinator is a coordinator with a tracer and a metrics registry
// of its own.
func observedCoordinator() *Coordinator {
	return &Coordinator{Tracer: &trace.Tracer{}, Metrics: metrics.New()}
}

// recordedCoordinator is an observed coordinator with a flight recorder,
// which holds each finished query's span tree.
func recordedCoordinator() *Coordinator {
	c := observedCoordinator()
	c.Recorder = obs.NewRecorder(obs.RecorderConfig{Site: "G", Metrics: c.Metrics})
	return c
}

// serversOf maps a cluster's running sites to their servers.
func serversOf(cl *Cluster) map[object.SiteID]*Server {
	out := make(map[object.SiteID]*Server, len(cl.sites))
	for site, s := range cl.sites {
		out[site] = s.Server
	}
	return out
}

// authority makes coord the mapping authority over the school tables, so it
// can insert.
func authority(t testing.TB, coord *Coordinator) {
	t.Helper()
	matcher := isomer.NewMatcher(coord.Global)
	if err := matcher.Adopt(school.New().Databases, coord.Tables.Clone()); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	coord.Matcher, coord.Tables = matcher, matcher.Tables()
}

// assertQ1 runs Q1 under alg and holds it to the paper's answer, or to a
// degraded one.
func assertQ1(t *testing.T, coord *Coordinator, stage string, alg exec.Algorithm, wantDegraded bool) {
	t.Helper()
	ans, _, err := coord.Query(school.Q1, alg)
	if err != nil {
		t.Fatalf("%s: %v: Q1: %v", stage, alg, err)
	}
	if ans.Degraded != wantDegraded {
		t.Fatalf("%s: %v: Degraded = %v, want %v (unavailable: %v)", stage, alg, ans.Degraded, wantDegraded, ans.Unavailable)
	}
	if wantDegraded {
		return
	}
	if len(ans.Certain) != 1 || ans.Certain[0].GOid != "gs4" {
		t.Errorf("%s: %v: certain = %v", stage, alg, ans.Certain)
	}
	if len(ans.Maybe) != 1 || ans.Maybe[0].GOid != "gs2" {
		t.Errorf("%s: %v: maybe = %v", stage, alg, ans.Maybe)
	}
}

// TestClusterLifecycle drives a durable school cluster through one kill and
// one restart: a killed site is unwired everywhere and the queries degrade;
// restarted on its old address from its data directory, it is wired back
// and the first Ping hands it the binding it missed; Close leaves nothing
// running, the coordinator's connections included.
func TestClusterLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fed := schoolFed()
	coord := &Coordinator{Global: fed.Global, Tables: fed.Tables, Call: fastFail}
	authority(t, coord)
	cl, err := StartCluster(ClusterConfig{Federation: fed, DataDir: t.TempDir(), Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	algs := []exec.Algorithm{exec.CA, exec.BL, exec.PL}
	for _, alg := range algs {
		assertQ1(t, coord, "healthy cluster", alg, false)
	}

	addr := cl.Addrs()["DB3"]
	if err := cl.Kill("DB3"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if _, ok := coord.Sites["DB3"]; ok || cl.Server("DB3") != nil {
		t.Fatalf("killed DB3 is still wired: %v", coord.Sites)
	}
	for site, srv := range serversOf(cl) {
		if _, ok := srv.peerAddr("DB3"); ok {
			t.Errorf("%s still has a peer address for killed DB3", site)
		}
	}
	for _, alg := range algs {
		assertQ1(t, coord, "DB3 killed", alg, true)
	}
	goid, err := coord.Insert("DB1", object.New("t9", "Teacher", map[string]object.Value{"name": object.Str("Newton")}))
	if err != nil {
		t.Fatalf("insert at DB1 with DB3 unwired: %v", err)
	}

	if err := cl.Restart("DB3"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if got := cl.Addrs()["DB3"]; got != addr || coord.Sites["DB3"] != addr {
		t.Fatalf("DB3 restarted on %s (coordinator: %s), want its old address %s", got, coord.Sites["DB3"], addr)
	}
	if err := coord.Ping(); err != nil {
		t.Fatalf("ping of the restarted cluster: %v", err)
	}
	if loid, ok := cl.Server("DB3").cfg.Tables.Table("Teacher").LOidAt(goid, "DB1"); !ok || loid != "t9" {
		t.Fatalf("restarted DB3 lacks the binding it missed: %s@DB1 = (%q, %v)", goid, loid, ok)
	}
	for _, alg := range algs {
		assertQ1(t, coord, "DB3 restarted", alg, false)
	}

	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if coord.cl != nil {
		t.Error("Close left the coordinator's client open")
	}
	settleGoroutines(t, baseline)
}

// TestCoordinatorCloseIdempotent covers the Close lifecycle: closing a
// coordinator that never made a call must not allocate a client, repeated
// Close calls are harmless, and a closed coordinator remains usable (the
// next call builds a fresh client).
func TestCoordinatorCloseIdempotent(t *testing.T) {
	fresh := &Coordinator{ID: "G"}
	fresh.Close()
	fresh.Close()
	if fresh.cl != nil {
		t.Fatal("Close allocated a client on a coordinator that never called anyone")
	}

	coord, _ := testCluster(t, nil, nil, nil)
	if err := coord.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if coord.cl == nil {
		t.Fatal("Ping did not build the client")
	}
	coord.Close()
	if coord.cl != nil {
		t.Fatal("client survived Close")
	}
	coord.Close() // second Close is a no-op, not a panic or double-free
	// The coordinator stays usable: the next call builds a fresh client.
	if err := coord.Ping(); err != nil {
		t.Fatalf("Ping after Close: %v", err)
	}
	if coord.cl == nil {
		t.Fatal("Ping after Close did not rebuild the client")
	}
	coord.Close()
}
