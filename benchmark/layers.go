package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/trace"
)

// The traced pass divides the window among its live blocks in these shares;
// the replay, the engine runs and the probes are fixed work on top. Together
// with three cluster set-ups the pass takes about as long as the end-to-end
// pass.
const (
	shareBaseline = 0.25 // the workload's own traffic, untraced
	shareSingle   = 0.06 // one strategy alone; three untraced and three traced
	shareScaling  = 0.06 // read-only rotation with one and with two clients
	shareAlone    = 0.08 // the paced writer alone
	shareMixed    = 0.12 // the paced writer beside one reader
)

// pings is the number of Coordinator.Ping calls behind remote.ping_rtt_us.
const pings = 300

func share(window time.Duration, s float64) time.Duration {
	return time.Duration(float64(window) * s)
}

// layerPass carries the traced pass's state from section to section.
type layerPass struct {
	w      workloadSpec
	seed   int64
	window time.Duration
	tmpDir string
	refs   []refAnswer
	cal    *calibrator
	out    *passResult
	// totals sums the failure counters of every cluster the pass built.
	totals map[string]float64
}

// block runs one block and folds its operations into the pass's result.
func (lp *layerPass) block(cl *cluster, spec blockSpec) (*blockResult, error) {
	res, err := runBlock(cl, spec)
	if err != nil {
		return nil, err
	}
	lp.out.absorb(res)
	return res, nil
}

// cluster sets up a second, identically seeded cluster.
func (lp *layerPass) cluster(opts clusterOpts) (*cluster, error) {
	opts.Dir, opts.Seed = lp.tmpDir, lp.seed
	cl, _, err := setUp(lp.w, lp.seed, lp.refs, opts)
	return cl, err
}

// retire closes a cluster after adding its failure counters to the totals.
func (lp *layerPass) retire(cl *cluster) error {
	snap := cl.snapshot()
	for metric, counter := range map[string]string{
		"remote.retries":       "call_retries_total",
		"remote.call_failures": "call_failures_total",
		"remote.pool_stale":    "pool_stale_total",
		"remote.shed":          "queries_shed_total",
	} {
		lp.totals[metric] += snap.sum(counter)
	}
	return cl.close()
}

// runLayers is the traced pass: everything that attributes the end-to-end
// numbers to layers. Each layer is measured from outside, by timing calls
// into its exported functions and reading the exported registries; the
// program gains no span or counter. End-to-end metrics never come from
// here.
func runLayers(w workloadSpec, seed int64, window time.Duration, tmpDir, outDir string, cal *calibrator) (*passResult, error) {
	fd, err := buildFed(w.Fed, seed)
	if err != nil {
		return nil, err
	}
	if err := fd.computeRefs(); err != nil {
		return nil, err
	}
	lp := &layerPass{
		w: w, seed: seed, window: window, tmpDir: tmpDir, refs: fd.Refs, cal: cal,
		out:    &passResult{Metrics: metricSet{}},
		totals: map[string]float64{},
	}
	m := lp.out.Metrics

	// In process first: the replay, the engine floor and simulation, the
	// probes. They need no cluster.
	log := newSpanLog()
	rp, err := replay(fd, log)
	if err != nil {
		return nil, err
	}
	log.finish()
	if err := writeJSON(filepath.Join(outDir, "spans-"+w.Name+".json"), log.spans); err != nil {
		return nil, err
	}
	lp.out.Attempted += rp.Queries
	lp.out.Failed += rp.Failed
	lp.out.Failure = rp.Failure
	for _, step := range []string{"retrieve_us", "materialize_us", "evaluate_view_us", "eval_local_us", "check_bl_us",
		"certify_bl_us", "navigate_us", "eval_navigated_us", "check_pl_us", "certify_pl_us"} {
		m.putPct("federation."+step, rp.StepUs[step], 50)
	}
	for _, c := range []string{"retrieve_wire_bytes", "local_wire_bytes", "check_items_bl", "check_items_pl",
		"maybe_in", "certified", "eliminated"} {
		m.put("federation."+c, rp.Counts[c]/float64(rp.Variants), rp.Variants)
	}
	yield := 0.0
	if in := rp.Counts["maybe_in"]; in > 0 {
		yield = (rp.Counts["certified"] + rp.Counts["eliminated"]) / in
	}
	m.put("federation.certify_yield", yield, rp.Variants)

	modeled, err := probeEngine(fd, m)
	if err != nil {
		return nil, err
	}
	if err := probeLayers(fd, tmpDir, m); err != nil {
		return nil, err
	}

	single, err := lp.untraced(modeled)
	if err != nil {
		return nil, err
	}
	if err := lp.traced(single); err != nil {
		return nil, err
	}
	if err := lp.writePath(); err != nil {
		return nil, err
	}
	for metric, v := range lp.totals {
		m.put(metric, v, lp.out.Attempted)
	}
	m.put("runtime.peak_rss_mb", float64(rusage().Maxrss)/1024, 1)
	return lp.out, nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// untraced drives a cluster configured exactly like the end-to-end pass's:
// the workload's own traffic for the runtime and tail metrics, each strategy
// alone between two registry snapshots, and the rotation with one and with
// two clients. It returns each strategy's median latency when run alone,
// the base of trace.overhead_ratio.
func (lp *layerPass) untraced(modeled map[exec.Algorithm]float64) (map[exec.Algorithm]float64, error) {
	cl, err := lp.cluster(clusterOpts{Durable: lp.w.Durable})
	if err != nil {
		return nil, err
	}
	defer cl.close()
	m := lp.out.Metrics

	// The workload's own traffic, with the process's resource use around it.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds(rusage())
	base, err := lp.block(cl, blockSpec{Clients: lp.w.Clients, Algs: strategies, Writer: lp.w.Writer, Dur: share(lp.window, shareBaseline), Cal: lp.cal})
	if err != nil {
		return nil, err
	}
	cpu1 := cpuSeconds(rusage())
	runtime.ReadMemStats(&after)
	q := float64(base.queries())
	if q == 0 {
		return nil, fmt.Errorf("baseline block completed no query: %s", base.FirstFailure)
	}
	// The calibration kernels keep one core busy while they run; their time
	// is the benchmark's, not the program's.
	m.put("runtime.cpu_ms_per_query", (cpu1-cpu0-base.Cal.spent.Seconds())*1e3/q, base.queries())
	m.put("runtime.alloc_kb_per_query", float64(after.TotalAlloc-before.TotalAlloc)/1024/q, base.queries())
	m.put("runtime.mallocs_per_query", float64(after.Mallocs-before.Mallocs)/q, base.queries())
	m.put("loadgen.speed_index", base.Cal.index(), base.Cal.rounds())
	m.put("runtime.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	for i, a := range strategies {
		m.putPct("remote."+stratKey(a)+"_p95_ms", base.LatMs[i], 95)
		m.putPct("remote."+stratKey(a)+"_p99_ms", base.LatMs[i], 99)
		m.put("loadgen.samples_"+stratKey(a), float64(len(base.LatMs[i])), len(base.LatMs[i]))
		floor := m["exec."+stratKey(a)+"_p50_us"].Value
		m.put("remote.overhead_"+stratKey(a)+"_us", percentile(base.LatMs[i], 50)*1e3-floor, len(base.LatMs[i]))
	}

	// Each strategy alone, between two snapshots of every registry.
	single := map[exec.Algorithm]float64{}
	var queued, singles float64
	for _, a := range strategies {
		prev := cl.snapshot()
		res, err := lp.block(cl, blockSpec{Clients: 1, Algs: []exec.Algorithm{a}, Dur: share(lp.window, shareSingle)})
		if err != nil {
			return nil, err
		}
		d := cl.since(prev)
		lat := res.LatMs[stratIndex(a)]
		n := float64(len(lat))
		if n == 0 {
			return nil, fmt.Errorf("%v alone completed no query: %s", a, res.FirstFailure)
		}
		single[a] = percentile(lat, 50)
		k := "remote." + stratKey(a)
		m.put(k+"_requests_per_query", d.sum("requests_total")/n, len(lat))
		m.put(k+"_net_bytes_per_query", d.netBytes()/n, len(lat))
		m.put(k+"_wire_inflation", d.netBytes()/n/modeled[a], len(lat))
		m.put(k+"_server_busy_us_per_query", d.histSum("request_latency_us")/n, len(lat))
		if a != exec.CA {
			m.put(k+"_checks_per_query", d.sum("checks_dispatched_total")/n, len(lat))
		}
		queued += d.sum("queries_queued_total")
		singles += n
	}
	m.put("remote.admission_queued_per_query", queued/singles, int(singles))

	// The read-only rotation with one and with two clients.
	var qps [2]float64
	for i, clients := range []int{1, 2} {
		res, err := lp.block(cl, blockSpec{Clients: clients, Algs: strategies, Dur: share(lp.window, shareScaling)})
		if err != nil {
			return nil, err
		}
		qps[i] = res.qps()
		if clients == 2 {
			for j, a := range strategies {
				m.putPct("remote.conc_"+stratKey(a)+"_p50_ms", res.LatMs[j], 50)
			}
		}
	}
	scaling := 0.0
	if qps[0] > 0 {
		scaling = qps[1] / qps[0]
	}
	m.put("remote.qps_scaling", scaling, 2)

	// The empty-payload RPC floor: Ping asks all three sites at once.
	rtt := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if err := cl.coord.Ping(); err != nil {
			return nil, fmt.Errorf("ping: %w", err)
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m.putPct("remote.ping_rtt_us", rtt, 50)
	probeSnapshot(cl.regs[0], m)
	return single, lp.retire(cl)
}

// traced drives a cluster with the program's own tracing on - a bounded
// tracer in every server, a tracer and flight recorder in the coordinator -
// one strategy at a time, and reads the phase attribution the recorder's
// profiles carry. The ratio of these blocks' medians to the untraced ones is
// what tracing costs.
func (lp *layerPass) traced(single map[exec.Algorithm]float64) error {
	cl, err := lp.cluster(clusterOpts{Durable: lp.w.Durable, Traced: true})
	if err != nil {
		return err
	}
	defer cl.close()
	m := lp.out.Metrics
	var ratios, spans []float64
	for _, a := range strategies {
		res, err := lp.block(cl, blockSpec{Clients: 1, Algs: []exec.Algorithm{a}, Dur: share(lp.window, shareSingle)})
		if err != nil {
			return err
		}
		lat := res.LatMs[stratIndex(a)]
		if len(lat) == 0 {
			return fmt.Errorf("%v traced completed no query: %s", a, res.FirstFailure)
		}
		ratios = append(ratios, percentile(lat, 50)/single[a])

		// The recorder's ring holds the block's most recent profiles.
		phase := map[string][]float64{}
		for _, p := range cl.recorder.Profiles() {
			if p.Alg != a.String() || p.Status != trace.StatusOK {
				continue
			}
			spans = append(spans, float64(len(p.Spans)))
			slowest := map[string]float64{}
			for _, row := range p.Phases.Rows() {
				if row.Micros > slowest[row.Phase] {
					slowest[row.Phase] = row.Micros
				}
			}
			for _, ph := range []string{"O", "I", "P"} {
				phase[ph] = append(phase[ph], slowest[ph])
			}
		}
		for _, ph := range []string{"O", "I", "P"} {
			m.putPct("trace."+stratKey(a)+"_"+ph+"_us", phase[ph], 50)
		}
	}
	m.put("trace.spans_per_query", mean(spans), len(spans))
	m.put("trace.overhead_ratio", mean(ratios), len(ratios))
	return lp.retire(cl)
}

// writePath drives a durable cluster with the paced writer, first alone and
// then beside one reader, on every workload: the insert path uses the same
// store, gmap and remote layers as the queries. The difference between the
// two medians is time the insert spent waiting for the reader, not working.
func (lp *layerPass) writePath() error {
	cl, err := lp.cluster(clusterOpts{Durable: true})
	if err != nil {
		return err
	}
	defer cl.close()
	m := lp.out.Metrics

	prev := cl.snapshot()
	alone, err := lp.block(cl, blockSpec{Writer: true, Dur: share(lp.window, shareAlone)})
	if err != nil {
		return err
	}
	d := cl.since(prev)
	if len(alone.InsertMs) == 0 {
		return fmt.Errorf("writer alone completed no insert: %s", alone.FirstFailure)
	}
	// Store and bind requests carry no strategy; the verification query's do.
	var unlabelled float64
	for _, s := range d[1:] {
		for _, smp := range s.Samples {
			if smp.Name == "requests_total" && smp.Labels.Alg == "" {
				unlabelled += float64(smp.Value)
			}
		}
	}
	inserts := float64(len(alone.InsertMs))
	m.put("remote.binds_per_insert", (unlabelled-inserts)/inserts, len(alone.InsertMs))
	m.putPct("remote.insert_alone_p50_ms", alone.InsertMs, 50)

	mixed, err := lp.block(cl, blockSpec{Clients: 1, Algs: strategies, Writer: true, Dur: share(lp.window, shareMixed)})
	if err != nil {
		return err
	}
	m.putPct("remote.insert_p50_ms", mixed.InsertMs, 50)
	m.putPct("remote.insert_p95_ms", mixed.InsertMs, 95)
	m.put("remote.insert_wait_ms", percentile(mixed.InsertMs, 50)-percentile(alone.InsertMs, 50), len(mixed.InsertMs))
	m.putPct("loadgen.late_p95_ms", mixed.LateMs, 95)
	m.put("loadgen.samples_insert", float64(len(mixed.InsertMs)), len(mixed.InsertMs))
	return lp.retire(cl)
}
