package exec

import (
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

// TestRunRecordsProfile: the engine hands the flight recorder a complete
// profile at query end, and the query_latency_us exemplar resolves back to
// exactly that profile — the metrics → recorder debugging loop.
func TestRunRecordsProfile(t *testing.T) {
	fx := school.New()
	reg := metrics.New()
	rec := obs.NewRecorder(obs.RecorderConfig{Site: "G", Metrics: reg})
	e, err := New(Config{
		Global:      fx.Global,
		Coordinator: "G",
		Databases:   fx.Databases,
		Tables:      fx.Mapping,
		Tracer:      &trace.Tracer{},
		Metrics:     reg,
		Recorder:    rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b := schoolBound(t, fx)

	ans, m, err := e.Run(fabric.NewSim(fabric.DefaultRates(), e.Sites()), PL, b)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if n := len(rec.Profiles()); n != 1 {
		t.Fatalf("recorded = %d, want 1", n)
	}
	p := rec.Last()
	if p == nil {
		t.Fatal("no profile recorded")
	}
	if p.Alg != "PL" || p.Status != trace.StatusOK {
		t.Errorf("profile = %s/%s", p.Alg, p.Status)
	}
	if p.Certain != len(ans.Certain) || p.Maybe != len(ans.Maybe) {
		t.Errorf("profile rows = %d/%d, answer = %d/%d",
			p.Certain, p.Maybe, len(ans.Certain), len(ans.Maybe))
	}
	// The profile's latency is the runtime's response time (virtual under
	// the DES), matching what query_latency_us observed.
	if p.WallMicros != m.ResponseMicros {
		t.Errorf("profile wall = %g, runtime response = %g", p.WallMicros, m.ResponseMicros)
	}
	// All participating sites appear with phase attribution.
	for _, site := range []string{"DB1", "DB2", "DB3", "G"} {
		found := false
		for _, s := range p.Sites {
			if string(s) == site {
				found = true
			}
		}
		if !found {
			t.Errorf("profile sites %v missing %s", p.Sites, site)
		}
	}
	if p.Phases.Total() <= 0 {
		t.Error("profile has no phase attribution")
	}
	if p.Counters["disk_bytes"] <= 0 || p.Counters["cpu_ops"] <= 0 {
		t.Errorf("runtime counters missing: %v", p.Counters)
	}

	// The histogram's exemplar points at the recorded profile.
	s, ok := reg.Snapshot().Get("query_latency_us", metrics.Labels{Site: "G", Alg: "PL"})
	if !ok || s.Hist == nil {
		t.Fatal("query_latency_us missing")
	}
	var ex *metrics.Exemplar // one observation: the one bucket that has one
	for _, e := range s.Hist.Exemplars {
		if e != nil {
			ex = e
		}
	}
	if ex == nil {
		t.Fatal("no exemplar on query_latency_us")
	}
	if got := rec.Get(ex.TraceID); got != p {
		t.Errorf("exemplar %q resolves to %v, want the recorded profile %s", ex.TraceID, got, p.ID)
	}

	// A second run records a second, distinct profile.
	if _, _, err := e.Run(fabric.NewSim(fabric.DefaultRates(), e.Sites()), BL, b); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if n := len(rec.Profiles()); n != 2 {
		t.Errorf("recorded = %d, want 2", n)
	}
	if rec.Last() == p {
		t.Error("second run did not record a new profile")
	}
}

// TestProfileDegradedRetained: a query degraded by a site failure produces a
// degraded profile that the recorder pins past ring-size evictions.
func TestProfileDegradedRetained(t *testing.T) {
	fx := school.New()
	reg := metrics.New()
	rec := obs.NewRecorder(obs.RecorderConfig{Site: "G", Metrics: reg})
	e, err := New(Config{
		Global:      fx.Global,
		Coordinator: "G",
		Databases:   fx.Databases,
		Tables:      fx.Mapping,
		Tracer:      &trace.Tracer{},
		Metrics:     reg,
		Recorder:    rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b := schoolBound(t, fx)

	// One query with DB2 down: the answer degrades, the profile records it.
	fp := fabric.NewFaultPlan().Kill("DB2")
	ans, _, err := e.Run(fabric.NewSim(fabric.DefaultRates(), e.Sites()).WithFaults(fp), PL, b)
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("answer not degraded with DB2 down")
	}
	degradedID := rec.Last().ID
	if got := rec.Last().Status; got != trace.StatusDegraded {
		t.Fatalf("degraded profile status = %s", got)
	}

	// Flood with healthy queries past the ring size; the degraded profile
	// must still be resolvable.
	for i := 0; i < obs.RecorderSize+8; i++ {
		if _, _, err := e.Run(fabric.NewSim(fabric.DefaultRates(), e.Sites()), PL, b); err != nil {
			t.Fatalf("healthy run %d: %v", i, err)
		}
	}
	p := rec.Get(degradedID)
	if p == nil {
		t.Fatal("degraded profile evicted by healthy traffic")
	}
	if len(p.Unavailable) != 1 || p.Unavailable[0] != "DB2" {
		t.Errorf("degraded profile unavailable = %v", p.Unavailable)
	}
}
