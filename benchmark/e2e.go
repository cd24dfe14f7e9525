package main

import (
	"fmt"
	"runtime"
	"time"
)

// A pass sets the cluster up at least minSetupReps times, and goes on while
// the set-ups took less than setupBudget together, up to maxSetupReps: a
// 70 ms set-up needs more repetitions than a 0.8 s one for a steady median.
// setup_s is the median; the last cluster built is the one measured.
const (
	minSetupReps = 5
	maxSetupReps = 15
	setupBudget  = 2 * time.Second
)

// metricValue is one measured metric with the number of samples behind it.
// LowN marks a percentile with fewer than minBeyond samples beyond it. Raw,
// on end-to-end metrics only, is the value on the benchmark's own clock;
// Value is Raw brought to the reference machine's speed (see calib.go).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	LowN  bool    `json:"low_n,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

// metricSet collects a pass's metrics by name.
type metricSet map[string]metricValue

// put records a metric, taking its unit from the catalog. A name outside
// the catalog is a bug in the benchmark.
func (m metricSet) put(name string, value float64, n int) {
	m[name] = metricValue{Value: value, Unit: unitOf(name), N: n}
}

// putPct records the p-th percentile of the samples under name.
func (m metricSet) putPct(name string, samples []float64, p float64) {
	m[name] = metricValue{
		Value: percentile(samples, p),
		Unit:  unitOf(name),
		N:     len(samples),
		LowN:  !supported(len(samples), p),
	}
}

// putTime records a time measured while the machine ran at the given speed
// index: the reported value is what the reference machine would have taken.
func (m metricSet) putTime(name string, raw, index float64, n int, lowN bool) {
	m[name] = metricValue{Value: raw / index, Unit: unitOf(name), N: n, LowN: lowN, Raw: raw}
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	panic("metric " + name + " is not in the catalog")
}

// passResult is what one pass over one workload produced.
type passResult struct {
	Metrics   metricSet `json:"metrics"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Failure describes the first failed operation, empty when none failed.
	Failure string `json:"failure,omitempty"`
	// WindowIndex and SetupIndex are the speed indices the end-to-end pass
	// divided its window's and its set-ups' times by.
	WindowIndex float64 `json:"window_speed_index,omitempty"`
	SetupIndex  float64 `json:"setup_speed_index,omitempty"`
	// Kernels describes the window's calibration, for the printed report.
	Kernels string `json:"kernels,omitempty"`
}

func (p *passResult) absorb(r *blockResult) {
	p.Attempted += r.Attempted
	p.Failed += r.Failed
	if p.Failure == "" {
		p.Failure = r.FirstFailure
	}
}

// setUp builds the workload's input and cluster from the seed and warms the
// cluster up, timing all of it. Data generation is timed too: it runs the
// program's own store and mapping-table code.
func setUp(w workloadSpec, seed int64, refs []refAnswer, opts clusterOpts) (*cluster, time.Duration, error) {
	t0 := time.Now()
	fd, err := buildFed(w.Fed, seed)
	if err != nil {
		return nil, 0, err
	}
	fd.Refs = refs
	cl, err := startCluster(fd, opts)
	if err != nil {
		return nil, 0, err
	}
	if err := warmup(cl, w.Warmup); err != nil {
		cl.close()
		return nil, 0, err
	}
	return cl, time.Since(t0), nil
}

// setupCalRounds is the number of calibration rounds before the first
// set-up and after each one.
const setupCalRounds = 8

// runE2E is the untraced pass: set-up (several times, median reported), one
// measured window of the workload's own traffic, and the end-to-end metrics
// of that window. No tracer or recorder is wired anywhere. The calibration
// kernels run between the set-ups and between the window's queries, never
// while something is being timed.
func runE2E(w workloadSpec, seed int64, window time.Duration, tmpDir string, cal *calibrator) (*passResult, error) {
	ref, err := buildFed(w.Fed, seed)
	if err != nil {
		return nil, err
	}
	if err := ref.computeRefs(); err != nil {
		return nil, err
	}
	opts := clusterOpts{Durable: w.Durable, Dir: tmpDir, Seed: seed}
	var (
		cl       *cluster
		setups   []float64
		setupCal calSamples
		spent    time.Duration
	)
	calibrate := func() {
		for i := 0; i < setupCalRounds; i++ {
			setupCal.round(cal)
		}
	}
	calibrate()
	for rep := 0; rep < minSetupReps || (rep < maxSetupReps && spent < setupBudget); rep++ {
		if cl != nil {
			if err := cl.close(); err != nil {
				return nil, fmt.Errorf("close cluster: %w", err)
			}
		}
		var took time.Duration
		if cl, took, err = setUp(w, seed, ref.Refs, opts); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		spent += took
		calibrate()
	}
	defer cl.close()

	runtime.GC() // start the window from a collected heap, outside set-up
	res, err := runBlock(cl, blockSpec{Clients: w.Clients, Algs: strategies, Writer: w.Writer, Dur: window, Cal: cal})
	if err != nil {
		return nil, err
	}
	out := &passResult{Metrics: metricSet{}, WindowIndex: res.Cal.index(), SetupIndex: setupCal.index(), Kernels: res.Cal.describe()}
	out.absorb(res)
	out.Metrics.putTime("setup_s", median(setups), out.SetupIndex, len(setups), false)
	for i, a := range strategies {
		lat := res.LatMs[i]
		out.Metrics.putTime(stratKey(a)+"_p50_ms", percentile(lat, 50), out.WindowIndex, len(lat), !supported(len(lat), 50))
	}
	// A rate is the inverse of a time: the slower the machine ran, the more
	// queries the reference machine would have completed.
	out.Metrics.putTime("qps", res.typicalRate(), 1/out.WindowIndex, len(res.RoundMs), !supported(len(res.RoundMs), 50))
	return out, cl.close()
}
