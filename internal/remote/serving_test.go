package remote

import (
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
)

// TestStalePooledConnRedial: a connection that idled in the pool across a
// server restart is dead on first use. The client must detect this, redial
// once for free — without failing the call or counting a call failure — and
// complete the call against the restarted server.
func TestStalePooledConnRedial(t *testing.T) {
	reg := metrics.New()
	coord, cluster := testCluster(t, nil, &Coordinator{Metrics: reg}, nil)
	if err := coord.Ping(); err != nil {
		t.Fatalf("first ping: %v", err)
	}

	// Restart the server on the same address; the pooled connection dies.
	if err := cluster.Restart("DB1"); err != nil {
		t.Fatal(err)
	}
	if err := coord.Ping(); err != nil {
		t.Fatalf("ping after restart: %v (stale pooled conn not redialed)", err)
	}
	lbl := metrics.Labels{Site: "G", Peer: "DB1"}
	if got := reg.Snapshot().CounterValue("pool_stale_total", lbl); got != 1 {
		t.Errorf("pool_stale_total = %d, want 1", got)
	}
	if got := reg.Snapshot().CounterValue("call_failures_total", lbl); got != 0 {
		t.Errorf("call_failures_total = %d, want 0", got)
	}
}

// TestClusterConcurrentStrategies runs the full strategy suite concurrently
// against one cluster: eight queries in flight share the servers' state and
// the pooled connections, and every answer must match the paper exactly.
func TestClusterConcurrentStrategies(t *testing.T) {
	reg := metrics.New()
	coord, _ := testCluster(t, nil, &Coordinator{Metrics: reg}, func(_ object.SiteID, cfg *ServerConfig) { cfg.Metrics = reg })

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
