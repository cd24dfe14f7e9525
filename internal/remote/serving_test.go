package remote

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
)

// startClusterWith is startCluster with a shared metrics registry and a
// per-server config hook, returning the servers for direct inspection.
func startClusterWith(t *testing.T, reg *metrics.Registry, mutate func(*ServerConfig)) (*Coordinator, map[object.SiteID]*Server, func()) {
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

// TestBatcherCoalesces drives the batcher directly: two check groups bound
// for the same peer enqueued within one flush window must travel as ONE
// checkbatch RPC, and each waiter must receive its own group-aligned reply.
func TestBatcherCoalesces(t *testing.T) {
	reg := metrics.New()
	_, servers, cleanup := startClusterWith(t, reg, func(cfg *ServerConfig) {
		cfg.Batch = BatchConfig{Window: 50 * time.Millisecond}
	})
	defer cleanup()

	src := servers["DB1"]
	if src.batcher == nil {
		t.Fatal("batcher not constructed despite Batch.Window > 0")
	}
	// Real check items against DB3: gs4's assistant t4' holds the missing
	// speciality — the verdict set must come back per enqueued group.
	item := federation.CheckItem{
		ItemGOid:  "gs4",
		Assistant: "t4'",
		Point:     &query.Point{ItemClass: "GStudent", SourceIdx: 1},
	}
	e1 := src.batcher.enqueue("DB3", []federation.CheckItem{item}, TraceContext{From: "DB1"}, time.Time{})
	e2 := src.batcher.enqueue("DB3", []federation.CheckItem{item}, TraceContext{From: "DB1"}, time.Time{})
	for i, e := range []*pendingChecks{e1, e2} {
		select {
		case out := <-e.done:
			if out.err != nil {
				t.Fatalf("entry %d: %v", i, out.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("entry %d: no outcome within 5s", i)
		}
	}
	lbl := metrics.Labels{Site: "DB1", Peer: "DB3"}
	if got := reg.Snapshot().CounterValue("check_batches_total", lbl); got != 1 {
		t.Errorf("check_batches_total = %d, want 1 (two groups should share one RPC)", got)
	}
	s, ok := reg.Snapshot().Get("check_batch_groups", metrics.Labels{Site: "DB1"})
	if !ok || s.Hist == nil {
		t.Fatal("check_batch_groups histogram missing")
	}
	if s.Hist.Count != 1 || s.Hist.Sum != 2 {
		t.Errorf("check_batch_groups count=%d sum=%.0f, want count=1 sum=2", s.Hist.Count, s.Hist.Sum)
	}
}

// TestClusterBatchedQueries runs the full strategy suite concurrently with
// check batching enabled on every server: answers must match the paper
// exactly even when the check pipelines of different queries share RPCs.
func TestClusterBatchedQueries(t *testing.T) {
	reg := metrics.New()
	coord, _, cleanup := startClusterWith(t, reg, func(cfg *ServerConfig) {
		cfg.Batch = BatchConfig{Window: 2 * time.Millisecond}
	})
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

// TestClusterCacheCoherence: with the lookup cache enabled, an Insert that
// adds a new assistant must invalidate the cached location and verdict
// state so the very next query sees the new binding — the read-through
// cache must never serve a pre-insert answer.
func TestClusterCacheCoherence(t *testing.T) {
	reg := metrics.New()
	coord, _, cleanup := startClusterWith(t, reg, func(cfg *ServerConfig) {
		cfg.Cache = true
	})
	defer cleanup()

	fx := school.New()
	matcher := isomer.NewMatcher(coord.Global)
	if err := matcher.Adopt(fx.Databases, coord.Tables.Clone()); err != nil {
		t.Fatal(err)
	}
	coord.Matcher = matcher
	coord.Tables = matcher.Tables()

	// Warm the caches: run the query twice; the second pass must hit.
	for i := 0; i < 2; i++ {
		ans, _, err := coord.Query(school.Q1, exec.BL)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Maybe) != 1 || len(ans.Maybe[0].Unknown) != 2 {
			t.Fatalf("pre-insert run %d: %+v", i, ans.Maybe)
		}
	}
	hits := reg.Snapshot().CounterValue("cache_hits_total", metrics.Labels{Site: "DB1", Phase: "gmap"})
	if hits == 0 {
		t.Error("cache_hits_total{DB1,gmap} = 0 after repeated query, want > 0")
	}

	// Insert Haley's isomeric record holding the missing speciality.
	if _, err := coord.Insert("DB2", object.New("t9'", "Teacher", map[string]object.Value{
		"name": object.Str("Haley"), "speciality": object.Str("database"),
	})); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	// The next query must already see the new assistant: one unknown left.
	ans, _, err := coord.Query(school.Q1, exec.BL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Maybe) != 1 || len(ans.Maybe[0].Unknown) != 1 || ans.Maybe[0].Unknown[0] != 0 {
		t.Fatalf("post-insert answer stale: %+v", ans.Maybe)
	}
	if inv := reg.Snapshot().CounterValue("cache_invalidations_total", metrics.Labels{Site: "DB2"}); inv == 0 {
		t.Error("cache_invalidations_total{DB2} = 0 after insert, want > 0")
	}
}

// TestServerBindsEachTextOnce: a query text is parsed and bound on its first
// request and shared, as one immutable *query.Bound, by every later one; a
// flood of distinct texts never holds more than the table's constant size.
func TestServerBindsEachTextOnce(t *testing.T) {
	fx := school.New()
	srv, err := NewServer(ServerConfig{DB: fx.Databases["DB1"], Global: fx.Global, Tables: fx.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := srv.bind(school.Q1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b, err := srv.bind(school.Q1); err != nil || b != first {
				t.Errorf("rebinding the same text: %p, %v; want the first bound query %p", b, err, first)
			}
		}()
	}
	wg.Wait()
	if _, err := srv.bind("select"); err == nil {
		t.Error("a text that does not parse was bound")
	}

	for i := 0; i < 3*maxBoundQueries; i++ {
		text := fmt.Sprintf(`select name from Student where name = "n%d"`, i)
		if _, err := srv.bind(text); err != nil {
			t.Fatal(err)
		}
		if n := len(srv.bound); n > maxBoundQueries {
			t.Fatalf("%d bound queries held after %d texts, cap %d", n, i+1, maxBoundQueries)
		}
	}
	if again, err := srv.bind(school.Q1); err != nil || again == nil {
		t.Errorf("binding after the table was dropped: %v", err)
	}
}
