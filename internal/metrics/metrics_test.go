package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestLabelsString(t *testing.T) {
	if got := (Labels{}).String(); got != "" {
		t.Errorf("empty labels = %q", got)
	}
	l := Labels{Site: "DB1", Peer: "G", Alg: "BL", Phase: "O"}
	want := `{site="DB1",peer="G",alg="BL",phase="O"}`
	if got := l.String(); got != want {
		t.Errorf("labels = %q, want %q", got, want)
	}
	if got := (Labels{Alg: "CA"}).String(); got != `{alg="CA"}` {
		t.Errorf("alg-only labels = %q", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x", Labels{}).Inc()
	r.Gauge("y", Labels{}).Set(3)
	r.Histogram("z", Labels{}).Observe(1)
	if snap := r.Snapshot(); len(snap.Samples) != 0 {
		t.Errorf("nil registry snapshot has %d samples", len(snap.Samples))
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("reqs", Labels{Site: "DB1"})
	c.Inc()
	c.Add(4)
	c.Add(-100) // ignored: counters are monotone
	g := r.Gauge("depth", Labels{Site: "DB1"})
	g.Set(7)
	g.Add(-2)

	snap := r.Snapshot()
	if n := snap.CounterValue("reqs", Labels{Site: "DB1"}); n != 5 {
		t.Errorf("counter = %d, want 5", n)
	}
	s, ok := snap.Get("depth", Labels{Site: "DB1"})
	if !ok || s.Value != 5 || s.Kind != "gauge" {
		t.Errorf("gauge sample = %+v, ok=%v", s, ok)
	}
	// Same (name, labels) returns the same instrument.
	r.Counter("reqs", Labels{Site: "DB1"}).Inc()
	if n := r.Snapshot().CounterValue("reqs", Labels{Site: "DB1"}); n != 6 {
		t.Errorf("counter after re-fetch = %d, want 6", n)
	}
	// Absent counter reads as zero.
	if n := snap.CounterValue("reqs", Labels{Site: "DB9"}); n != 0 {
		t.Errorf("absent counter = %d", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", Labels{Alg: "BL"})
	for _, v := range []float64{10, 60, 60, 99999, 1e9} {
		h.Observe(v)
	}
	s, ok := r.Snapshot().Get("lat", Labels{Alg: "BL"})
	if !ok || s.Hist == nil {
		t.Fatalf("histogram sample missing (ok=%v)", ok)
	}
	hs := s.Hist
	if hs.Count != 5 {
		t.Errorf("count = %d, want 5", hs.Count)
	}
	// 10 → le50; 60,60 → le100; 99999 → le100000; 1e9 → overflow.
	if hs.Counts[0] != 1 || hs.Counts[1] != 2 {
		t.Errorf("low buckets = %v", hs.Counts)
	}
	if hs.Counts[len(hs.Counts)-1] != 1 {
		t.Errorf("overflow bucket = %v", hs.Counts)
	}
	wantSum := 10 + 60 + 60 + 99999 + 1e9
	if hs.Sum != wantSum {
		t.Errorf("sum = %g, want %g", hs.Sum, wantSum)
	}
	if got := hs.Mean(); got != wantSum/5 {
		t.Errorf("mean = %g", got)
	}
	var empty *HistogramSnapshot
	if empty.Mean() != 0 {
		t.Error("nil snapshot mean != 0")
	}
}

func TestSnapshotOrderingAndDelta(t *testing.T) {
	r := New()
	r.Counter("b_total", Labels{Site: "DB2"}).Add(2)
	r.Counter("b_total", Labels{Site: "DB1"}).Add(1)
	r.Counter("a_total", Labels{}).Add(9)
	r.Gauge("g", Labels{}).Set(4)
	r.Histogram("h", Labels{}).Observe(100)
	first := r.Snapshot()

	var names []string
	for _, s := range first.Samples {
		names = append(names, s.Name+s.Labels.String())
	}
	want := []string{"a_total", "b_total{site=\"DB1\"}", "b_total{site=\"DB2\"}", "g", "h"}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}

	r.Counter("a_total", Labels{}).Add(1)
	r.Gauge("g", Labels{}).Set(11)
	r.Histogram("h", Labels{}).Observe(300)
	second := r.Snapshot()
	d := second.Delta(first)
	if n := d.CounterValue("a_total", Labels{}); n != 1 {
		t.Errorf("delta counter = %d, want 1", n)
	}
	if s, _ := d.Get("g", Labels{}); s.Value != 11 {
		t.Errorf("delta gauge = %d, want current value 11", s.Value)
	}
	if s, _ := d.Get("h", Labels{}); s.Hist.Count != 1 || s.Hist.Sum != 300 {
		t.Errorf("delta histogram = %+v", s.Hist)
	}
	// Unchanged counters difference to zero.
	if n := d.CounterValue("b_total", Labels{Site: "DB1"}); n != 0 {
		t.Errorf("unchanged counter delta = %d", n)
	}
}

// A durable site that restarts starts a fresh registry: its counters come
// back smaller than the previous snapshot saw. The delta must treat the new
// value as the whole delta, not go negative.
func TestDeltaCounterReset(t *testing.T) {
	before := New()
	before.Counter("requests_total", Labels{Site: "DB1"}).Add(100)
	before.Counter("steady_total", Labels{Site: "DB1"}).Add(5)
	before.Histogram("lat_us", Labels{Site: "DB1"}).Observe(400)
	before.Histogram("lat_us", Labels{Site: "DB1"}).Observe(900)
	prev := before.Snapshot()

	// "Restarted" process: same series names, smaller values.
	after := New()
	after.Counter("requests_total", Labels{Site: "DB1"}).Add(3)
	after.Counter("steady_total", Labels{Site: "DB1"}).Add(7) // grew: normal
	after.Histogram("lat_us", Labels{Site: "DB1"}).Observe(250)
	cur := after.Snapshot()

	d := cur.Delta(prev)
	if n := d.CounterValue("requests_total", Labels{Site: "DB1"}); n != 3 {
		t.Errorf("reset counter delta = %d, want the new value 3", n)
	}
	if n := d.CounterValue("steady_total", Labels{Site: "DB1"}); n != 2 {
		t.Errorf("grown counter delta = %d, want 2", n)
	}
	s, ok := d.Get("lat_us", Labels{Site: "DB1"})
	if !ok || s.Hist == nil {
		t.Fatalf("lat_us missing from delta")
	}
	if s.Hist.Count != 1 || s.Hist.Sum != 250 {
		t.Errorf("reset histogram delta = count %d sum %.0f, want the new snapshot (1, 250)",
			s.Hist.Count, s.Hist.Sum)
	}

	// A normal monotone pair is differenced as usual.
	after.Counter("requests_total", Labels{Site: "DB1"}).Add(500)
	if n := after.Snapshot().Delta(cur).CounterValue("requests_total", Labels{Site: "DB1"}); n != 500 {
		t.Errorf("monotone counter delta = %d, want 500", n)
	}
}

// A histogram whose total count held steady but whose buckets moved
// (impossible without a restart plus coincidental growth) still counts as
// a reset: any shrinking bucket is the tell.
func TestDeltaHistogramBucketReset(t *testing.T) {
	a := New()
	a.Histogram("h", Labels{}).Observe(50) // lands in a low bucket
	prev := a.Snapshot()

	b := New()
	b.Histogram("h", Labels{}).Observe(5_000_000) // one obs, but a different bucket
	d := b.Snapshot().Delta(prev)
	if s, _ := d.Get("h", Labels{}); s.Hist.Count != 1 || s.Hist.Sum != 5_000_000 {
		t.Errorf("delta = %+v, want the new snapshot whole", s.Hist)
	}
}

func TestTextAndJSON(t *testing.T) {
	r := New()
	r.Counter("queries_total", Labels{Site: "G", Alg: "BL"}).Add(2)
	r.Histogram("query_latency_us", Labels{Site: "G", Alg: "BL"}).Observe(120)
	snap := r.Snapshot()

	text := snap.Text()
	for _, want := range []string{
		`queries_total{site="G",alg="BL"} 2`,
		"query_latency_us", "count=1", "mean=120.0µs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q:\n%s", want, text)
		}
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(decoded.Samples) != 2 {
		t.Errorf("decoded %d samples, want 2", len(decoded.Samples))
	}
	if decoded.CounterValue("queries_total", Labels{Site: "G", Alg: "BL"}) != 2 {
		t.Error("counter lost in JSON round-trip")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var empty *HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("nil snapshot quantile = %g, want 0", got)
	}
	if got := NewHistogram().Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}

	// 100 observations spread uniformly inside the (100, 250] bucket: the
	// interpolated median must land mid-bucket, and the extremes must stay
	// inside the bucket bounds.
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(150)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got < 100 || got > 250 {
		t.Errorf("median = %g, want within (100, 250]", got)
	}
	// All mass in one bucket: q=1 is the bucket's upper bound. q=0 walks to
	// the first bucket and reports its bound (rank 0 is satisfied there).
	if got := s.Quantile(1); got != 250 {
		t.Errorf("q=1 = %g, want 250", got)
	}
	if got := s.Quantile(0); got != bounds[0] {
		t.Errorf("q=0 = %g, want first bound %g", got, bounds[0])
	}
	// Out-of-range q clamps rather than panicking.
	if got := s.Quantile(-1); got != s.Quantile(0) {
		t.Errorf("q=-1 = %g, want clamp to q=0", got)
	}
	if got := s.Quantile(2); got != s.Quantile(1) {
		t.Errorf("q=2 = %g, want clamp to q=1", got)
	}

	// Two buckets, 90/10 split: p50 in the first, p95 in the second.
	h2 := NewHistogram()
	for i := 0; i < 90; i++ {
		h2.Observe(80) // (50, 100]
	}
	for i := 0; i < 10; i++ {
		h2.Observe(2000) // (1000, 2500]
	}
	s2 := h2.Snapshot()
	if got := s2.Quantile(0.5); got < 50 || got > 100 {
		t.Errorf("p50 = %g, want within (50, 100]", got)
	}
	if got := s2.Quantile(0.95); got < 1000 || got > 2500 {
		t.Errorf("p95 = %g, want within (1000, 2500]", got)
	}

	// Overflow-bucket targets report the largest finite bound.
	h3 := NewHistogram()
	h3.Observe(1e9)
	top := bounds[len(bounds)-1]
	if got := h3.Snapshot().Quantile(0.99); got != top {
		t.Errorf("overflow quantile = %g, want %g", got, top)
	}
}

// exemplarFor returns the exemplar of the bucket the value v falls into, nil
// when none is attached.
func exemplarFor(h *HistogramSnapshot, v float64) *Exemplar {
	if h == nil {
		return nil
	}
	return h.Exemplars[bucket(v)]
}

func TestHistogramExemplar(t *testing.T) {
	r := New()
	h := r.Histogram("query_latency_us", Labels{Site: "G", Alg: "PL"})
	h.ObserveWithExemplar(120, "q7")
	h.Observe(80) // plain Observe must not attach or clobber an exemplar
	h.ObserveWithExemplar(99000, "q9")

	s, ok := r.Snapshot().Get("query_latency_us", Labels{Site: "G", Alg: "PL"})
	if !ok || s.Hist == nil {
		t.Fatalf("histogram sample missing (ok=%v)", ok)
	}
	hs := s.Hist
	e := exemplarFor(hs, 120)
	if e == nil || e.TraceID != "q7" || e.Value != 120 {
		t.Errorf("exemplar at 120 = %+v, want q7/120", e)
	}
	if e := exemplarFor(hs, 99000); e == nil || e.TraceID != "q9" {
		t.Errorf("exemplar at 99000 = %+v, want q9", e)
	}
	// A bucket that never saw an exemplar resolves to nil.
	if e := exemplarFor(hs, 3); e != nil {
		t.Errorf("exemplar at 3 = %+v, want nil", e)
	}
	// Last write wins within a bucket.
	h.ObserveWithExemplar(130, "q8")
	if e := exemplarFor(r.Snapshot().Samples[0].Hist, 120); e == nil || e.TraceID != "q8" {
		t.Errorf("after overwrite, exemplar = %+v, want q8", e)
	}
	// Empty trace ID attaches nothing.
	h2 := NewHistogram()
	h2.ObserveWithExemplar(10, "")
	if h2.Snapshot().Exemplars != [numBuckets]*Exemplar{} {
		t.Error("empty trace ID attached an exemplar")
	}
	// Text() marks exemplared buckets with #traceID.
	text := r.Snapshot().Text()
	if !strings.Contains(text, "#q8") || !strings.Contains(text, "#q9") {
		t.Errorf("text missing exemplar markers:\n%s", text)
	}
	// Exemplars survive JSON round-trips (the /metrics?format=json surface).
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	ds, _ := decoded.Get("query_latency_us", Labels{Site: "G", Alg: "PL"})
	if e := exemplarFor(ds.Hist, 120); e == nil || e.TraceID != "q8" {
		t.Errorf("exemplar lost in JSON round-trip: %+v", e)
	}
}

// TestConcurrentExemplars hammers ObserveWithExemplar and Snapshot from many
// goroutines; under -race this is the exemplar path's thread-safety test.
func TestConcurrentExemplars(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.ObserveWithExemplar(float64(j%3000), "q"+string(rune('0'+i)))
				if j%29 == 0 {
					exemplarFor(h.Snapshot(), float64(j%3000))
				}
			}
		}(i)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8*500 {
		t.Errorf("count = %d, want %d", s.Count, 8*500)
	}
	if exemplarFor(s, 100) == nil {
		t.Error("no exemplar survived concurrent writes")
	}
}

// TestConcurrentAccess exercises registration and recording from many
// goroutines; run under -race this is the registry's thread-safety test.
func TestConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	sites := []string{"DB1", "DB2", "DB3", "G"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l := Labels{Site: sites[j%len(sites)], Alg: "BL"}
				r.Counter("requests_total", l).Inc()
				r.Gauge("inflight", l).Add(1)
				r.Histogram("latency_us", l).Observe(float64(j))
				if j%17 == 0 {
					r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for _, s := range snap.Samples {
		if s.Name == "requests_total" {
			total += s.Value
		}
	}
	if total != 8*200 {
		t.Errorf("requests_total sum = %d, want %d", total, 8*200)
	}
}
