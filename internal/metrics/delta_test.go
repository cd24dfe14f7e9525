package metrics

import "testing"

// TestRegistryDelta: the registry-level convenience never double-counts
// across measurement windows and survives nil/missing-series edge cases.
func TestRegistryDelta(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", Labels{Site: "DB1"})
	h := r.Histogram("lat_us", Labels{Site: "DB1"})
	c.Add(5)
	h.Observe(100)

	prev := r.Snapshot()

	// Work after the first window: only it must appear in the delta.
	c.Add(3)
	h.Observe(300)
	// A series born between the snapshots: its full value is its delta.
	r.Counter("ops_total", Labels{Site: "DB2"}).Add(7)

	d := r.Delta(prev)
	if got := d.CounterValue("ops_total", Labels{Site: "DB1"}); got != 3 {
		t.Errorf("DB1 delta = %d, want 3", got)
	}
	if got := d.CounterValue("ops_total", Labels{Site: "DB2"}); got != 7 {
		t.Errorf("DB2 (new series) delta = %d, want 7", got)
	}
	smp, ok := d.Get("lat_us", Labels{Site: "DB1"})
	if !ok || smp.Hist == nil {
		t.Fatal("histogram sample missing from delta")
	}
	if smp.Hist.Count != 1 || smp.Hist.Sum != 300 {
		t.Errorf("histogram delta count=%d sum=%.0f, want 1/300", smp.Hist.Count, smp.Hist.Sum)
	}

	// A second window against the same prev would double-count; against a
	// fresh snapshot it must not.
	prev2 := r.Snapshot()
	d2 := r.Delta(prev2)
	if got := d2.CounterValue("ops_total", Labels{Site: "DB1"}); got != 0 {
		t.Errorf("idle window delta = %d, want 0", got)
	}

	// Nil registry: empty snapshot, no panic.
	var nilReg *Registry
	if got := nilReg.Delta(prev); len(got.Samples) != 0 {
		t.Errorf("nil registry delta has %d samples", len(got.Samples))
	}
	// Delta against a zero-value prev passes everything through.
	if got := r.Delta(Snapshot{}).CounterValue("ops_total", Labels{Site: "DB1"}); got != 8 {
		t.Errorf("delta vs empty prev = %d, want 8", got)
	}
}

func TestSnapshotSumAndHistTotals(t *testing.T) {
	r := New()
	r.Counter("net_bytes_total", Labels{Site: "DB1", Peer: "G"}).Add(100)
	r.Counter("net_bytes_total", Labels{Site: "DB2", Peer: "G"}).Add(250)
	r.Histogram("lat_us", Labels{Site: "DB1"}).Observe(100)
	r.Histogram("lat_us", Labels{Site: "DB2"}).Observe(200)
	r.Histogram("lat_us", Labels{Site: "DB2"}).Observe(400)
	s := r.Snapshot()

	if got := s.Sum("net_bytes_total"); got != 350 {
		t.Errorf("Sum = %d, want 350", got)
	}
	if got := s.Sum("absent_total"); got != 0 {
		t.Errorf("Sum(absent) = %d, want 0", got)
	}
	n, sum := s.HistTotals("lat_us")
	if n != 3 || sum != 700 {
		t.Errorf("HistTotals = (%d, %.0f), want (3, 700)", n, sum)
	}
	if n, _ := s.HistTotals("absent"); n != 0 {
		t.Errorf("HistTotals(absent) count = %d, want 0", n)
	}
}
