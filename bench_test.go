// Benchmarks regenerating the paper's evaluation, one per table/figure:
//
//	BenchmarkFigure9   — total/response time vs. objects per constituent class
//	BenchmarkFigure10  — vs. number of component databases
//	BenchmarkFigure11  — vs. local-predicate selectivity
//	BenchmarkTable1T2  — the workload generator itself (Tables 1 and 2)
//	BenchmarkSignatureAblation — E7, the Section 5 signature extension
//	BenchmarkNetworkRates      — E8, sensitivity to T_net
//
// Each iteration executes one full strategy run over a generated Table 2
// federation inside the discrete-event simulator. The simulated response
// and total execution times are attached as custom metrics (resp_ms,
// total_ms), so `go test -bench` output directly reports the paper's two
// y-axes alongside wall-clock cost. Micro-benchmarks for the substrates
// (parser, predicate evaluation, DES kernel, isomerism identification,
// outerjoin materialization) follow.
package hetfed_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/des"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/workload"
)

// benchWorkload generates one deterministic Table 2 sample.
func benchWorkload(b *testing.B, mutate func(*workload.Ranges)) *workload.Workload {
	b.Helper()
	ranges := workload.DefaultRanges()
	ranges.NObjects = [2]int{900, 1100} // keep per-iteration cost tractable
	if mutate != nil {
		mutate(&ranges)
	}
	rng := rand.New(rand.NewSource(1))
	w, err := workload.Generate(ranges.Draw(rng), rng)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchEngine(b *testing.B, w *workload.Workload, sigs *signature.Index) *exec.Engine {
	b.Helper()
	engine, err := exec.New(exec.Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
		Signatures:  sigs,
	})
	if err != nil {
		b.Fatal(err)
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

// BenchmarkFigure9 regenerates Figure 9's points: every strategy at small
// and large extents.
func BenchmarkFigure9(b *testing.B) {
	for _, objects := range []int{500, 2000} {
		objects := objects
		w := benchWorkload(b, func(r *workload.Ranges) {
			r.NObjects = [2]int{objects - objects/10, objects + objects/10}
		})
		for _, alg := range exec.Algorithms() {
			engine := benchEngine(b, w, nil)
			b.Run(fmt.Sprintf("%v/objects=%d", alg, objects), func(b *testing.B) {
				runStrategy(b, engine, w, alg)
			})
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10's points: every strategy at few
// and many component databases.
func BenchmarkFigure10(b *testing.B) {
	for _, ndb := range []int{2, 6} {
		ndb := ndb
		w := benchWorkload(b, func(r *workload.Ranges) { r.NDB = ndb })
		for _, alg := range exec.Algorithms() {
			engine := benchEngine(b, w, nil)
			b.Run(fmt.Sprintf("%v/dbs=%d", alg, ndb), func(b *testing.B) {
				runStrategy(b, engine, w, alg)
			})
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11's points: every strategy at low
// and high local-predicate selectivity.
func BenchmarkFigure11(b *testing.B) {
	for _, sel := range []float64{0.2, 0.8} {
		sel := sel
		w := benchWorkload(b, func(r *workload.Ranges) {
			r.Selectivity = sel
			r.NObjects = [2]int{1000, 1100} // the paper's Figure 11 setting, scaled
		})
		for _, alg := range exec.Algorithms() {
			engine := benchEngine(b, w, nil)
			b.Run(fmt.Sprintf("%v/sel=%.1f", alg, sel), func(b *testing.B) {
				runStrategy(b, engine, w, alg)
			})
		}
	}
}

// BenchmarkTable1T2 measures the workload generator (the machinery behind
// Tables 1 and 2): one full federation per iteration.
func BenchmarkTable1T2(b *testing.B) {
	ranges := workload.DefaultRanges()
	ranges.NObjects = [2]int{900, 1100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := workload.Generate(ranges.Draw(rng), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatureAblation compares the localized strategies with and
// without the signature index on an equality-predicate workload (E7).
func BenchmarkSignatureAblation(b *testing.B) {
	w := benchWorkload(b, func(r *workload.Ranges) { r.EqualityPreds = true })
	sigs := signature.Build(w.Databases)
	for _, alg := range []exec.Algorithm{exec.BL, exec.SBL, exec.PL, exec.SPL} {
		engine := benchEngine(b, w, sigs)
		b.Run(alg.String(), func(b *testing.B) {
			runStrategy(b, engine, w, alg)
		})
	}
}

// BenchmarkNetworkRates measures strategy sensitivity to the network rate
// (E8): the same workload under a fast and a slow medium.
func BenchmarkNetworkRates(b *testing.B) {
	w := benchWorkload(b, nil)
	for _, netRate := range []float64{2, 32} {
		netRate := netRate
		for _, alg := range exec.Algorithms() {
			engine := benchEngine(b, w, nil)
			b.Run(fmt.Sprintf("%v/tnet=%g", alg, netRate), func(b *testing.B) {
				rates := fabric.DefaultRates()
				rates.NetPerByte = netRate
				var last fabric.Metrics
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt := fabric.NewSim(rates, engine.Sites())
					_, m, err := engine.Run(rt, alg, w.Bound)
					if err != nil {
						b.Fatal(err)
					}
					last = m
				}
				b.StopTimer()
				b.ReportMetric(last.ResponseMicros/1e3, "resp_ms")
				b.ReportMetric(last.TotalBusyMicros/1e3, "total_ms")
			})
		}
	}
}

// instrumentedEngine builds an engine with the full observability layer
// (span tracer + metrics registry) attached.
func instrumentedEngine(tb testing.TB, w *workload.Workload) *exec.Engine {
	tb.Helper()
	tr := &trace.Tracer{}
	tr.SetLimit(4096)
	engine, err := exec.New(exec.Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
		Tracer:      tr,
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
	w := benchWorkload(b, nil)
	b.Run("off", func(b *testing.B) {
		runStrategy(b, benchEngine(b, w, nil), w, exec.BL)
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
	w := benchWorkloadT(t)
	ratio := overheadRatio(t, w, benchEngineT(t, w), instrumentedEngine(t, w))
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
	batch(loaded, 3) // warm-up, the tracer's ring included; base warms up as it is calibrated
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
	tr := &trace.Tracer{}
	tr.SetLimit(4096)
	reg := metrics.New()
	engine, err := exec.New(exec.Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
		Tracer:      tr,
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
	w := benchWorkload(b, nil)
	b.Run("off", func(b *testing.B) {
		runStrategy(b, benchEngine(b, w, nil), w, exec.BL)
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
	w := benchWorkloadT(t)
	ratio := overheadRatio(t, w, benchEngineT(t, w), profiledEngine(t, w))
	if ratio > 2.0 {
		t.Errorf("profile overhead ratio %.2f exceeds the 2.0 budget", ratio)
	}
}

// benchWorkloadT and benchEngineT are the *testing.T twins of the benchmark
// helpers.
func benchWorkloadT(t *testing.T) *workload.Workload {
	t.Helper()
	ranges := workload.DefaultRanges()
	ranges.NObjects = [2]int{400, 500} // small: two timed runs in one test
	rng := rand.New(rand.NewSource(1))
	w, err := workload.Generate(ranges.Draw(rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func benchEngineT(t *testing.T, w *workload.Workload) *exec.Engine {
	t.Helper()
	engine, err := exec.New(exec.Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine
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
	w := benchWorkload(b, nil)
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
	w := benchWorkload(b, nil)
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
	w := benchWorkload(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isomer.Identify(w.Global, w.Databases); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESKernel measures the discrete-event kernel: fan-out of 1000
// processes contending on shared resources.
func BenchmarkDESKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := des.New()
		cpu := sim.NewResource("cpu")
		net := sim.NewResource("net")
		sim.Spawn("root", func(p *des.Proc) {
			children := make([]*des.Proc, 0, 1000)
			for j := 0; j < 1000; j++ {
				children = append(children, p.Spawn("w", func(c *des.Proc) {
					c.Use(cpu, 1)
					c.Use(net, 0.5)
				}))
			}
			p.Join(children...)
		})
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatureBuild measures signature-index construction.
func BenchmarkSignatureBuild(b *testing.B) {
	w := benchWorkload(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.Build(w.Databases)
	}
}

// BenchmarkIndexAblation compares scan-based and index-assisted BL (E10).
func BenchmarkIndexAblation(b *testing.B) {
	w := benchWorkload(b, func(r *workload.Ranges) { r.Selectivity = 0.1 })
	engine, err := exec.New(exec.Config{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
	})
	if err != nil {
		b.Fatal(err)
	}
	// A site probes an index its extent has: "indexed" is the same engine
	// after the indexes are built.
	for _, name := range []string{"scan", "indexed"} {
		if name == "indexed" {
			for _, db := range w.Databases {
				for _, a := range db.Schema().Class("C1").Attrs {
					if !a.IsComplex() && !a.MultiValued && a.Name[0] == 'p' {
						if _, err := db.CreateIndex("C1", a.Name); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			runStrategy(b, engine, w, exec.BL)
		})
	}
}
