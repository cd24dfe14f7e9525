// Package metrics is the federation's lock-cheap metrics registry:
// counters, gauges, and fixed-bucket latency histograms keyed by a small
// label set (site, peer site, algorithm, phase), with point-in-time
// snapshots that support delta (between two snapshots of one registry),
// rendered as text or JSON.
//
// Instruments are cheap on the hot path: registration takes a mutex only on
// first use of a (name, labels) pair; recording is a handful of atomic
// operations. That keeps the overhead budget of the instrumented execution
// path honest (see BenchmarkTraceOverhead).
//
// The series the system emits are catalogued in one place, DESIGN.md §6
// (name, labels, kind, emitter, meaning); scripts/check.sh fails when
// non-test code emits a name that table lacks, and when the table lists a
// series nothing emits.
//
// Histograms additionally carry per-bucket exemplars (last trace ID + value)
// when fed through ObserveWithExemplar, so a latency bucket on /metrics
// links to a recorded query profile.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels identify one instrument of a named metric. Unused fields stay
// empty; the struct is comparable and keys the registry directly.
type Labels struct {
	Site  string `json:"site,omitempty"`
	Peer  string `json:"peer,omitempty"`
	Alg   string `json:"alg,omitempty"`
	Phase string `json:"phase,omitempty"`
}

// String renders the labels in {k="v",...} form, empty for no labels.
func (l Labels) String() string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, fmt.Sprintf("%s=%q", k, v))
		}
	}
	add("site", l.Site)
	add("peer", l.Peer)
	add("alg", l.Alg)
	add("phase", l.Phase)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

type key struct {
	name   string
	labels Labels
}

// Counter is a monotonically increasing value.
type Counter struct{ v *atomic.Int64 }

// Add increases the counter. Negative deltas are ignored.
func (c Counter) Add(n int64) {
	if c.v != nil && n > 0 {
		c.v.Add(n)
	}
}

// Inc increases the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Gauge is a value that can move both ways.
type Gauge struct{ v *atomic.Int64 }

// Set replaces the gauge's value.
func (g Gauge) Set(n int64) {
	if g.v != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by a (possibly negative) delta.
func (g Gauge) Add(n int64) {
	if g.v != nil {
		g.v.Add(n)
	}
}

// bounds are the latency histogram's bucket upper bounds in microseconds,
// spanning sub-millisecond local work up to multi-second distributed
// queries. Every histogram has this one layout, so a snapshot carries counts
// and nothing that could disagree with them.
var bounds = [...]float64{
	50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
	50000, 100000, 250000, 500000, 1e6, 2.5e6, 5e6,
}

// numBuckets is the number of histogram buckets: one per bound plus the
// overflow bucket.
const numBuckets = len(bounds) + 1

// bucket returns the index of the bucket holding v.
func bucket(v float64) int { return sort.SearchFloat64s(bounds[:], v) }

// Exemplar links one observed value to the trace (query) that produced it,
// so a histogram bucket on /metrics resolves to a recorded profile in the
// flight recorder. Each bucket keeps its most recent exemplar.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// Histogram is a fixed-bucket histogram of microsecond values. Observations
// are lock-free.
type Histogram struct {
	counts    [numBuckets]atomic.Int64 // the last is the overflow bucket
	sum       atomic.Uint64            // float64 bits, CAS-accumulated
	count     atomic.Int64
	exemplars [numBuckets]atomic.Pointer[Exemplar] // last write wins
}

// NewHistogram returns a standalone histogram, attached to no registry —
// for callers that need the distribution estimator alone (the flight
// recorder's latency tail).
func NewHistogram() *Histogram { return new(Histogram) }

// Snapshot captures the histogram's current state. Nil-safe: a nil
// histogram yields an empty snapshot.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	if h == nil {
		return &HistogramSnapshot{}
	}
	return h.snapshot()
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveWithExemplar records one value and attaches the producing trace ID
// as the bucket's exemplar (last write wins — the freshest query is the one
// worth debugging).
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != "" {
		h.exemplars[bucket(v)].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Sum:   math.Float64frombits(h.sum.Load()),
		Count: h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	return s
}

// Registry holds the instruments of one process (a site server or a
// coordinator). The zero value is not usable; call New.
type Registry struct {
	mu       sync.RWMutex
	counters map[key]*atomic.Int64
	gauges   map[key]*atomic.Int64
	hists    map[key]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[key]*atomic.Int64),
		gauges:   make(map[key]*atomic.Int64),
		hists:    make(map[key]*Histogram),
	}
}

// Counter returns (creating on first use) the counter for the given name
// and labels. A nil registry returns a no-op instrument.
func (r *Registry) Counter(name string, l Labels) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{v: getOrCreate(r, r.counters, key{name, l}, func() *atomic.Int64 { return new(atomic.Int64) })}
}

// Gauge returns (creating on first use) the gauge for the given name and
// labels. A nil registry returns a no-op instrument.
func (r *Registry) Gauge(name string, l Labels) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{v: getOrCreate(r, r.gauges, key{name, l}, func() *atomic.Int64 { return new(atomic.Int64) })}
}

// Histogram returns (creating on first use) the histogram for the given
// name and labels. A nil registry returns nil, whose Observe is a no-op.
func (r *Registry) Histogram(name string, l Labels) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.hists, key{name, l}, func() *Histogram { return new(Histogram) })
}

func getOrCreate[T any](r *Registry, m map[key]*T, k key, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[k]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[k]; ok {
		return v
	}
	v = mk()
	m[k] = v
	return v
}

// HistogramSnapshot is the state of one histogram at snapshot time.
type HistogramSnapshot struct {
	// Counts holds one entry per bucket; the last is the overflow bucket.
	Counts [numBuckets]int64 `json:"counts"`
	Sum    float64           `json:"sum"`
	Count  int64             `json:"count"`
	// Exemplars is bucket-aligned with Counts: the last observation's trace
	// ID per bucket, nil for buckets without one.
	Exemplars [numBuckets]*Exemplar `json:"exemplars"`
}

// Mean is the average observed value, 0 for an empty histogram.
func (h *HistogramSnapshot) Mean() float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the target rank — the standard fixed-bucket
// estimate (what Prometheus's histogram_quantile computes). The overflow
// bucket has no upper bound, so targets landing there return the largest
// finite bound. Returns 0 for an empty histogram.
func (h *HistogramSnapshot) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts[:len(bounds)] {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if c == 0 {
			return bounds[i]
		}
		return lo + (bounds[i]-lo)*(rank-float64(cum))/float64(c)
	}
	return bounds[len(bounds)-1]
}

// Sample is one instrument's value at snapshot time.
type Sample struct {
	Name   string             `json:"name"`
	Labels Labels             `json:"labels"`
	Kind   string             `json:"kind"` // "counter", "gauge", "histogram"
	Value  int64              `json:"value,omitempty"`
	Hist   *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, ordered by name then
// labels.
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	samples := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, v := range r.counters {
		samples = append(samples, Sample{Name: k.name, Labels: k.labels, Kind: "counter", Value: v.Load()})
	}
	for k, v := range r.gauges {
		samples = append(samples, Sample{Name: k.name, Labels: k.labels, Kind: "gauge", Value: v.Load()})
	}
	for k, h := range r.hists {
		samples = append(samples, Sample{Name: k.name, Labels: k.labels, Kind: "histogram", Hist: h.snapshot()})
	}
	sortSamples(samples)
	return Snapshot{Samples: samples}
}

func sortSamples(samples []Sample) {
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Name != samples[j].Name {
			return samples[i].Name < samples[j].Name
		}
		return samples[i].Labels.String() < samples[j].Labels.String()
	})
}

// Get finds the sample for a name and label set.
func (s Snapshot) Get(name string, l Labels) (Sample, bool) {
	for _, smp := range s.Samples {
		if smp.Name == name && smp.Labels == l {
			return smp, true
		}
	}
	return Sample{}, false
}

// CounterValue returns the value of a counter sample, 0 when absent.
func (s Snapshot) CounterValue(name string, l Labels) int64 {
	smp, ok := s.Get(name, l)
	if !ok {
		return 0
	}
	return smp.Value
}

// Sum totals a counter (or gauge) metric across every label set it was
// recorded under — e.g. net_bytes_total over all site pairs. Absent
// metrics sum to 0.
func (s Snapshot) Sum(name string) int64 {
	var total int64
	for _, smp := range s.Samples {
		if smp.Name == name && smp.Kind != "histogram" {
			total += smp.Value
		}
	}
	return total
}

// HistTotals aggregates a histogram metric across every label set,
// returning the total observation count and value sum. Absent metrics
// and nil histogram snapshots yield zeros.
func (s Snapshot) HistTotals(name string) (count int64, sum float64) {
	for _, smp := range s.Samples {
		if smp.Name == name && smp.Kind == "histogram" && smp.Hist != nil {
			count += smp.Hist.Count
			sum += smp.Hist.Sum
		}
	}
	return count, sum
}

// Delta captures the registry's current values minus a previous snapshot
// of it — the measurement primitive: take a Snapshot before a
// run, Delta after it, and long-lived instruments (a server that has
// already served other runs) never double-count. Nil-safe: a nil registry
// yields an empty snapshot regardless of prev.
func (r *Registry) Delta(prev Snapshot) Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return r.Snapshot().Delta(prev)
}

// Delta returns s minus prev: counters and histograms are differenced,
// gauges keep their current value. Samples absent from prev pass through
// unchanged (a series born between the snapshots starts from zero, so its
// full value IS its delta); series present only in prev are dropped.
//
// Delta is reset-aware: when a counter's current value is below its
// previous value — the signature of the process restarting and its
// registry starting over — the current value IS the delta (everything the
// new process counted happened since the previous snapshot). Histograms
// reset when their total count or any bucket shrank. Without this, a
// durable site restarting between two snapshots would yield negative deltas
// that silently corrupt the rates read off them.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	base := make(map[key]Sample, len(prev.Samples))
	for _, smp := range prev.Samples {
		base[key{smp.Name, smp.Labels}] = smp
	}
	out := make([]Sample, 0, len(s.Samples))
	for _, smp := range s.Samples {
		old, ok := base[key{smp.Name, smp.Labels}]
		if ok && old.Kind == smp.Kind {
			switch smp.Kind {
			case "counter":
				if smp.Value >= old.Value { // below it, the process restarted
					smp.Value -= old.Value
				}
			case "histogram":
				smp.Hist = histDelta(smp.Hist, old.Hist)
			}
		}
		out = append(out, smp)
	}
	return Snapshot{Samples: out}
}

// histDelta differences two histogram snapshots. When the current
// histogram shrank — fewer total observations, or any bucket with fewer
// entries than before — the source process restarted, so the current
// snapshot is returned whole.
func histDelta(cur, old *HistogramSnapshot) *HistogramSnapshot {
	if cur == nil || old == nil || cur.Count < old.Count {
		return cur
	}
	d := &HistogramSnapshot{Sum: cur.Sum - old.Sum, Count: cur.Count - old.Count, Exemplars: cur.Exemplars}
	for i := range cur.Counts {
		if cur.Counts[i] < old.Counts[i] {
			return cur
		}
		d.Counts[i] = cur.Counts[i] - old.Counts[i]
	}
	return d
}

// Text renders the snapshot one instrument per line. Histograms print
// count, sum, mean, and the nonzero buckets.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, smp := range s.Samples {
		switch smp.Kind {
		case "counter", "gauge":
			fmt.Fprintf(&b, "%s%s %d\n", smp.Name, smp.Labels, smp.Value)
		case "histogram":
			h := smp.Hist
			if h == nil {
				h = &HistogramSnapshot{}
			}
			fmt.Fprintf(&b, "%s%s count=%d sum=%.1fµs mean=%.1fµs",
				smp.Name, smp.Labels, h.Count, h.Sum, h.Mean())
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				if i < len(bounds) {
					fmt.Fprintf(&b, " le%.0f:%d", bounds[i], c)
				} else {
					fmt.Fprintf(&b, " inf:%d", c)
				}
				if e := h.Exemplars[i]; e != nil {
					fmt.Fprintf(&b, "#%s", e.TraceID)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
