// The observability overhead budgets (E11, E14) and micro-benchmarks for the
// substrates: parser, local evaluation, outerjoin materialization, isomerism
// identification, the DES kernel, signature construction. Each strategy
// iteration executes one full run over a generated Table 2 federation inside
// the discrete-event simulator, with the simulated response and total
// execution times attached as custom metrics (resp_ms, total_ms). The
// paper's figures themselves are `hetbench run -topic figures`.
package hetfed_test

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/workload"
)

// benchWorkload generates one deterministic Table 2 sample with N_o in
// [lo, hi]: 900–1100 keeps a benchmark iteration tractable, 400–500 fits two
// timed runs in one test.
func benchWorkload(tb testing.TB, lo, hi int) *workload.Workload {
	tb.Helper()
	ranges := workload.DefaultRanges()
	ranges.NObjects = [2]int{lo, hi}
	rng := rand.New(rand.NewSource(1))
	w, err := workload.Generate(ranges.Draw(rng), rng)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func benchEngine(tb testing.TB, w *workload.Workload) *exec.Engine {
	tb.Helper()
	engine, err := exec.New(exec.Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return engine
}

// runStrategy executes the strategy b.N times in the simulator and reports
// the paper's metrics.
func runStrategy(b *testing.B, engine *exec.Engine, w *workload.Workload, alg exec.Algorithm) {
	b.Helper()
	var last fabric.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := fabric.NewSim(fabric.DefaultRates(), engine.Sites())
		_, m, err := engine.Run(rt, alg, w.Bound)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.StopTimer()
	b.ReportMetric(last.ResponseMicros/1e3, "resp_ms")
	b.ReportMetric(last.TotalBusyMicros/1e3, "total_ms")
	b.ReportMetric(float64(last.NetBytes)/1e3, "net_kB")
}

// instrumentedEngine builds an engine with the full observability layer
// (span tracer + metrics registry) attached.
func instrumentedEngine(tb testing.TB, w *workload.Workload) *exec.Engine {
	tb.Helper()
	engine, err := exec.New(exec.Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
		Tracer:      &trace.Tracer{},
		Metrics:     metrics.New(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return engine
}

// BenchmarkTraceOverhead measures the cost of the observability layer on a
// simulated BL execution: the same workload with instrumentation off and
// fully on (spans + per-site metrics). The documented budget is 1.5×;
// measured ratios sit well below it because the DES channel handshakes
// dominate the per-span mutex and per-metric atomic work. See
// EXPERIMENTS.md (E11) and TestTraceOverheadBudget.
func BenchmarkTraceOverhead(b *testing.B) {
	w := benchWorkload(b, 900, 1100)
	b.Run("off", func(b *testing.B) {
		runStrategy(b, benchEngine(b, w), w, exec.BL)
	})
	b.Run("on", func(b *testing.B) {
		runStrategy(b, instrumentedEngine(b, w), w, exec.BL)
	})
}

// TestTraceOverheadBudget enforces the observability overhead budget: a
// fully instrumented simulated BL run must cost at most 2× an
// uninstrumented one (the documented target is 1.5×; the hard test limit is
// looser to absorb scheduler noise on shared machines).
func TestTraceOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	w := benchWorkload(t, 400, 500)
	ratio := overheadRatio(t, w, benchEngine(t, w), instrumentedEngine(t, w))
	if ratio > 2.0 {
		t.Errorf("observability overhead ratio %.2f exceeds the 2.0 budget", ratio)
	}
}

// overheadRatio times simulated BL runs on the two engines and returns what
// a run on the second costs relative to one on the first: the median, over
// short rounds, of the round's own ratio. A round times one batch on each
// engine back to back, and rounds alternate which goes first, so a stretch
// in which other tests hold the cores slows both halves of a round (or, at
// worst, spoils that round) instead of one whole side of the comparison —
// two one-second runs, one after the other, read 2.09 one time in three when
// the rest of the suite ran beside them.
func overheadRatio(t *testing.T, w *workload.Workload, base, loaded *exec.Engine) float64 {
	t.Helper()
	batch := func(engine *exec.Engine, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			rt := fabric.NewSim(fabric.DefaultRates(), engine.Sites())
			if _, _, err := engine.Run(rt, exec.BL, w.Bound); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	batch(loaded, 3) // warm-up; base warms up as it is calibrated
	perRun := batch(base, 3) / 3
	n := int(max(1, min(200, 20*time.Millisecond/max(perRun, time.Microsecond))))
	const rounds = 15
	ratios := make([]float64, rounds)
	for r := range ratios {
		var b, l time.Duration
		if r%2 == 0 {
			b, l = batch(base, n), batch(loaded, n)
		} else {
			l, b = batch(loaded, n), batch(base, n)
		}
		ratios[r] = float64(l) / float64(b)
	}
	sort.Float64s(ratios)
	t.Logf("loaded/base over %d rounds of %d runs: median %.3f, range %.3f to %.3f",
		rounds, n, ratios[rounds/2], ratios[0], ratios[rounds-1])
	return ratios[rounds/2]
}

// profiledEngine builds an engine with everything the serving path can
// attach: span tracer, metrics registry (with exemplars), and the flight
// recorder assembling a trace.Profile per query.
func profiledEngine(tb testing.TB, w *workload.Workload) *exec.Engine {
	tb.Helper()
	reg := metrics.New()
	engine, err := exec.New(exec.Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
		Tracer:      &trace.Tracer{},
		Metrics:     reg,
		Recorder:    obs.NewRecorder(obs.RecorderConfig{Site: "G", Metrics: reg}),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return engine
}

// BenchmarkProfileOverhead (E14) extends E11's ladder by one rung: spans +
// metrics + per-query profile assembly and flight-recorder admission. The
// profiled rung must stay within E11's observability budget — BuildProfile
// is one pass over the query's spans, and Record is a ring append.
func BenchmarkProfileOverhead(b *testing.B) {
	w := benchWorkload(b, 900, 1100)
	b.Run("off", func(b *testing.B) {
		runStrategy(b, benchEngine(b, w), w, exec.BL)
	})
	b.Run("traced", func(b *testing.B) {
		runStrategy(b, instrumentedEngine(b, w), w, exec.BL)
	})
	b.Run("profiled", func(b *testing.B) {
		runStrategy(b, profiledEngine(b, w), w, exec.BL)
	})
}

// TestProfileOverheadBudget enforces E14's budget: a run with profile
// assembly and flight-recorder admission on top of full instrumentation must
// stay within the same 2× ceiling E11 grants the observability layer.
func TestProfileOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	w := benchWorkload(t, 400, 500)
	ratio := overheadRatio(t, w, benchEngine(t, w), profiledEngine(t, w))
	if ratio > 2.0 {
		t.Errorf("profile overhead ratio %.2f exceeds the 2.0 budget", ratio)
	}
}

// BenchmarkParse measures the SQL/X parser on the paper's Q1.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(school.Q1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalEval measures one site's full local-query evaluation (scan,
// three-valued predicates, unsolved-item extraction) on a generated extent.
func BenchmarkLocalEval(b *testing.B) {
	w := benchWorkload(b, 900, 1100)
	site := federation.NewSite(w.Databases["DB1"], w.Global, w.Tables)
	rt := fabric.NewReal(fabric.DefaultRates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run("bench", func(p fabric.Proc) {
			site.EvalLocalBasic(p, w.Bound, nil)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterialize measures the centralized approach's outerjoin
// integration over GOids.
func BenchmarkMaterialize(b *testing.B) {
	w := benchWorkload(b, 900, 1100)
	coord := federation.NewCoordinator("G", w.Global, w.Tables)
	var replies []federation.RetrieveReply
	rt := fabric.NewReal(fabric.DefaultRates())
	if _, err := rt.Run("retrieve", func(p fabric.Proc) {
		for _, id := range w.Bound.InvolvedSites() {
			site := federation.NewSite(w.Databases[id], w.Global, w.Tables)
			replies = append(replies, site.Retrieve(p, w.Bound))
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run("materialize", func(p fabric.Proc) {
			coord.Materialize(p, w.Bound, replies)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIsomerIdentify measures key-based isomerism identification.
func BenchmarkIsomerIdentify(b *testing.B) {
	w := benchWorkload(b, 900, 1100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isomer.Identify(w.Global, w.Databases); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESKernel measures the discrete-event kernel: fan-out of 1000
// tasks contending for a site's CPU and the network.
func BenchmarkDESKernel(b *testing.B) {
	rates := fabric.Rates{CPUPerOp: 1, NetPerByte: 0.5}
	for i := 0; i < b.N; i++ {
		_, err := fabric.NewSim(rates, []object.SiteID{"S", "G"}).Run("root", func(p fabric.Proc) {
			hs := make([]fabric.Handle, 1000)
			for j := range hs {
				hs[j] = p.Go("w", func(p fabric.Proc) {
					p.Sink("S").CPU(1)
					p.Transfer("S", "G", 1)
				})
			}
			p.Wait(hs...)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatureBuild measures signature-index construction.
func BenchmarkSignatureBuild(b *testing.B) {
	w := benchWorkload(b, 900, 1100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.Build(w.Databases)
	}
}
