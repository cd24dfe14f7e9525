package remote

import (
	"sync"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
)

// startClusterWith is startCluster with a shared metrics registry and a
// per-server config hook, returning the servers for direct inspection.
func startClusterWith(t testing.TB, reg *metrics.Registry, mutate func(*ServerConfig)) (*Coordinator, map[object.SiteID]*Server, func()) {
	t.Helper()
	fx := school.New()
	sigs := signature.Build(fx.Databases)

	servers := make(map[object.SiteID]*Server, len(fx.Databases))
	addrs := make(map[object.SiteID]string, len(fx.Databases))
	for site, db := range fx.Databases {
		cfg := ServerConfig{
			DB:         db,
			Global:     fx.Global,
			Tables:     fx.Mapping,
			Signatures: sigs,
			Metrics:    reg,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("NewServer(%s): %v", site, err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatalf("Listen(%s): %v", site, err)
		}
		servers[site] = srv
		addrs[site] = srv.Addr()
	}
	for _, srv := range servers {
		srv.SetPeers(addrs)
	}

	coord := &Coordinator{
		ID:      "G",
		Global:  fx.Global,
		Tables:  fx.Mapping,
		Sites:   addrs,
		Metrics: reg,
	}
	cleanup := func() {
		for _, srv := range servers {
			if err := srv.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}
	}
	return coord, servers, cleanup
}

// TestStalePooledConnRedial: a connection that idled in the pool across a
// server restart is dead on first use. The client must detect this, redial
// once for free — without consuming the (single) retry attempt or charging
// the breaker — and complete the call against the restarted server.
func TestStalePooledConnRedial(t *testing.T) {
	fx := school.New()
	reg := metrics.New()
	srv, err := NewServer(ServerConfig{DB: fx.Databases["DB1"], Global: fx.Global, Tables: fx.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	coord := &Coordinator{
		ID:     "G",
		Global: fx.Global,
		Tables: fx.Mapping,
		Sites:  map[object.SiteID]string{"DB1": addr},
		// One attempt: if the stale-connection probe consumed it, the call
		// would fail instead of succeeding via the free redial.
		Call:    CallConfig{Attempts: 1},
		Metrics: reg,
	}
	if err := coord.Ping(); err != nil {
		t.Fatalf("first ping: %v", err)
	}

	// Restart the server on the same address; the pooled connection dies.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(ServerConfig{DB: fx.Databases["DB1"], Global: fx.Global, Tables: fx.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	var lerr error
	for i := 0; i < 50; i++ { // the freed port can linger briefly
		if lerr = srv2.Listen(addr); lerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lerr != nil {
		t.Fatalf("relisten on %s: %v", addr, lerr)
	}
	defer srv2.Close()

	if err := coord.Ping(); err != nil {
		t.Fatalf("ping after restart: %v (stale pooled conn not redialed)", err)
	}
	lbl := metrics.Labels{Site: "G", Peer: "DB1"}
	if got := reg.Snapshot().CounterValue("pool_stale_total", lbl); got != 1 {
		t.Errorf("pool_stale_total = %d, want 1", got)
	}
	if got := reg.Snapshot().CounterValue("call_retries_total", lbl); got != 0 {
		t.Errorf("call_retries_total = %d, want 0 (redial must be free)", got)
	}
	if got := reg.Snapshot().CounterValue("call_failures_total", lbl); got != 0 {
		t.Errorf("call_failures_total = %d, want 0", got)
	}
}

// TestClusterConcurrentStrategies runs the full strategy suite concurrently
// against one cluster: eight queries in flight share the servers' state, the
// coordinator's gate and the pooled connections, and every answer must match
// the paper exactly.
func TestClusterConcurrentStrategies(t *testing.T) {
	coord, _, cleanup := startClusterWith(t, metrics.New(), nil)
	defer cleanup()
	coord.MaxConcurrent = 8

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		alg := exec.AllAlgorithms()[i%len(exec.AllAlgorithms())]
		wg.Add(1)
		go func(alg exec.Algorithm) {
			defer wg.Done()
			ans, _, err := coord.Query(school.Q1, alg)
			if err != nil {
				t.Errorf("%v: %v", alg, err)
				return
			}
			if len(ans.Certain) != 1 || ans.Certain[0].GOid != "gs4" {
				t.Errorf("%v certain = %v", alg, ans.Certain)
			}
			if len(ans.Maybe) != 1 || ans.Maybe[0].GOid != "gs2" {
				t.Errorf("%v maybe = %v", alg, ans.Maybe)
			}
		}(alg)
	}
	wg.Wait()
}
