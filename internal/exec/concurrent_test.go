package exec

import (
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

// concurrentEngine builds one shared Engine with admission control, a
// tracer and a metrics registry — every piece of cross-query shared state
// the engine owns — so the race detector sees the full surface.
func concurrentEngine(t testing.TB, maxConcurrent int) (*Engine, *query.Bound, *metrics.Registry) {
	t.Helper()
	fx := school.New()
	reg := metrics.New()
	e, err := New(Config{
		Global:        fx.Global,
		Coordinator:   "G",
		Databases:     fx.Databases,
		Tables:        fx.Mapping,
		Tracer:        &trace.Tracer{},
		Metrics:       reg,
		MaxConcurrent: maxConcurrent,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, query.MustBind(query.MustParse(school.Q1), fx.Global), reg
}

func inflight(snap metrics.Snapshot) int64 {
	s, _ := snap.Get("queries_inflight", metrics.Labels{Site: "G"})
	return s.Value
}

// TestConcurrentQueries drives 24 simultaneous queries through one shared
// Engine — mixed CA/BL/PL, both runtimes, and half the queries running
// against a fault plan that kills DB3 mid-flight. Every clean query must
// still produce the paper's exact answer and every faulted query must
// degrade exactly as the serial fault tests demand; run under -race this
// is the shared-state audit for the whole engine.
func TestConcurrentQueries(t *testing.T) {
	e, b, reg := concurrentEngine(t, 4)
	const wantClean = "certain: gs4(Hedy, Kelly) maybe: gs2(Tony, Haley)"

	const perAlg = 4 // × 3 algs × 2 runtimes = 24 goroutines, half faulted
	var wg sync.WaitGroup
	errs := make(chan error, 3*perAlg*2)
	check := func(alg Algorithm, rt fabric.Runtime, faulted bool) {
		defer wg.Done()
		ans, _, err := e.Run(rt, alg, b)
		if err != nil {
			errs <- err
			return
		}
		if faulted {
			if !ans.Degraded {
				t.Errorf("%v faulted: answer not degraded", alg)
			}
			if len(ans.Certain) != 0 {
				t.Errorf("%v faulted: certain = %v, want none", alg, ans.Certain)
			}
			return
		}
		if got := answerSummary(ans); got != wantClean {
			t.Errorf("%v clean: answer = %q, want %q", alg, got, wantClean)
		}
	}

	for _, alg := range Algorithms() {
		for i := 0; i < perAlg; i++ {
			faulted := i%2 == 1
			// Real runtime: wall-clock goroutine fabric.
			rt := fabric.NewReal(fabric.DefaultRates())
			if faulted {
				rt = rt.WithFaults(fabric.NewFaultPlan().Kill("DB3"))
			}
			wg.Add(1)
			go check(alg, rt, faulted)
			// Sim runtime: single-use, one per query, over the same Engine.
			srt := fabric.NewSim(fabric.DefaultRates(), e.Sites())
			if faulted {
				srt = srt.WithFaults(fabric.NewFaultPlan().Kill("DB3"))
			}
			wg.Add(1)
			go check(alg, srt, faulted)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query failed: %v", err)
	}
	if got := inflight(reg.Snapshot()); got != 0 {
		t.Errorf("queries_inflight after drain = %d, want 0", got)
	}
}

// TestConcurrentQueriesSharedReal runs queries over one shared Real runtime
// value concurrently: per-run state (clocks, sinks, process sets) must be
// isolated per Run call even when the fabric value itself is shared — and
// the unbounded (nil-gate) admission path must work too.
func TestConcurrentQueriesSharedReal(t *testing.T) {
	e, b, _ := concurrentEngine(t, 0)
	rt := fabric.NewReal(fabric.DefaultRates())
	const wantClean = "certain: gs4(Hedy, Kelly) maybe: gs2(Tony, Haley)"

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		alg := Algorithms()[i%len(Algorithms())]
		wg.Add(1)
		go func(alg Algorithm) {
			defer wg.Done()
			ans, _, err := e.Run(rt, alg, b)
			if err != nil {
				t.Errorf("%v: %v", alg, err)
				return
			}
			if got := answerSummary(ans); got != wantClean {
				t.Errorf("%v: answer = %q, want %q", alg, got, wantClean)
			}
		}(alg)
	}
	wg.Wait()
}

// TestAdmissionGate checks the gate really bounds concurrency: with
// MaxConcurrent=1 and several queries in flight, the queued counter must
// record the admissions that waited, and the inflight gauge must return to
// zero once the queries drain.
func TestAdmissionGate(t *testing.T) {
	e, b, reg := concurrentEngine(t, 1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.Run(fabric.NewReal(fabric.DefaultRates()), CA, b); err != nil {
				t.Errorf("run: %v", err)
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if queued := snap.CounterValue("queries_queued_total", metrics.Labels{Site: "G"}); queued == 0 {
		t.Errorf("queries_queued_total = 0, want > 0 with MaxConcurrent=1 and 4 clients")
	}
	if got := inflight(snap); got != 0 {
		t.Errorf("queries_inflight after drain = %d, want 0", got)
	}
}

// BenchmarkConcurrentQueries measures query throughput through one shared
// Engine at 1 versus 8 client goroutines. Each site operation carries a
// flat injected latency standing in for the remote round trip, so the
// benchmark measures what admission control exists to exploit — a
// coordinator overlapping its waits on remote sites — rather than raw
// single-machine CPU. The acceptance bar is ≥2× throughput at 8 clients
// over serial (compare the sub-benchmarks' ns/op).
func BenchmarkConcurrentQueries(b *testing.B) {
	siteLatency := func() *fabric.FaultPlan {
		fp := fabric.NewFaultPlan()
		for _, s := range []object.SiteID{"DB1", "DB2", "DB3"} {
			fp.Delay(s, 200)
		}
		return fp
	}
	run := func(b *testing.B, clients int) {
		e, bound, _ := concurrentEngine(b, clients)
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		per := (b.N + clients - 1) / clients
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					rt := fabric.NewReal(fabric.DefaultRates()).WithFaults(siteLatency())
					if _, _, err := e.Run(rt, BL, bound); err != nil {
						b.Errorf("run: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("clients-8", func(b *testing.B) { run(b, 8) })
}
