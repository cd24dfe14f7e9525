package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/trace"
)

// okProfile is a healthy, fast profile — flight-recorder filler.
func okProfile(id string) *trace.Profile {
	return &trace.Profile{ID: id, Alg: "PL", Status: trace.StatusOK, WallMicros: 500}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(okProfile("q1"))
	if r.Profiles() != nil || r.Get("q1") != nil || r.Last() != nil {
		t.Error("nil recorder is not a no-op")
	}
	NewRecorder(RecorderConfig{}).Record(nil) // nil profile must not panic
}

func TestRecorderRetention(t *testing.T) {
	reg := metrics.New()
	r := sizedRecorder(4, RecorderConfig{Site: "G", Metrics: reg})

	degraded := &trace.Profile{ID: "bad1", Alg: "BL", Status: trace.StatusDegraded,
		WallMicros: 600, Unavailable: []string{"DB2"}}
	errored := &trace.Profile{ID: "bad2", Alg: "CA", Status: trace.StatusError,
		WallMicros: 700, Error: "DB3 unreachable"}
	r.Record(degraded)
	r.Record(errored)
	// Flood with healthy queries, several ring-fulls past capacity.
	for i := 0; i < 20; i++ {
		r.Record(okProfile(fmt.Sprintf("ok%d", i)))
	}

	// The interesting profiles survive; healthy filler ages out oldest-first.
	if r.Get("bad1") != degraded {
		t.Error("degraded profile evicted")
	}
	if r.Get("bad2") != errored {
		t.Error("errored profile evicted")
	}
	if r.Get("ok0") != nil {
		t.Error("oldest healthy profile still present after 20 records into a ring of 4")
	}
	profiles := r.Profiles()
	if len(profiles) != 4 {
		t.Fatalf("ring holds %d profiles, want 4", len(profiles))
	}
	// Newest first: the latest healthy query leads the listing.
	if profiles[0].ID != "ok19" {
		t.Errorf("newest profile = %s, want ok19", profiles[0].ID)
	}
	if r.Last() != profiles[0] {
		t.Error("Last() disagrees with Profiles()[0]")
	}
	snap := reg.Snapshot()
	if n := snap.CounterValue("profiles_recorded_total", metrics.Labels{Site: "G"}); n != 22 {
		t.Errorf("profiles_recorded_total = %d", n)
	}
	if n := snap.CounterValue("profiles_evicted_total", metrics.Labels{Site: "G"}); n != 18 {
		t.Errorf("profiles_evicted_total = %d, want 18", n)
	}
}

// TestRecorderSlowThreshold: crossing the absolute threshold marks the
// profile slow (retained, counted, logged).
func TestRecorderSlowThreshold(t *testing.T) {
	reg := metrics.New()
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, nil))
	r := sizedRecorder(3, RecorderConfig{Site: "G", SlowThreshold: time.Millisecond, Log: log, Metrics: reg})

	slow := &trace.Profile{ID: "slow1", Alg: "PL", Status: trace.StatusOK, WallMicros: 5000}
	r.Record(slow)
	for i := 0; i < 10; i++ {
		r.Record(okProfile(fmt.Sprintf("ok%d", i)))
	}
	if r.Get("slow1") != slow {
		t.Error("slow profile evicted")
	}
	if n := reg.Snapshot().CounterValue("slow_queries_total", metrics.Labels{Site: "G", Alg: "PL"}); n != 1 {
		t.Errorf("slow_queries_total = %d, want 1", n)
	}
	out := logBuf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "query=slow1") {
		t.Errorf("slow-query log missing: %q", out)
	}
	// The fast queries are neither counted nor logged.
	if strings.Count(out, "slow query") != 1 {
		t.Errorf("slow-query log fired %d times", strings.Count(out, "slow query"))
	}
}

// TestRecorderSlowQuantile: without an absolute threshold, a profile in the
// running latency tail is retained once enough samples back the estimate.
func TestRecorderSlowQuantile(t *testing.T) {
	r := sizedRecorder(4, RecorderConfig{Site: "G"})
	// Seed the distribution well past slowMinSamples with fast queries.
	for i := 0; i < 2*slowMinSamples; i++ {
		r.Record(okProfile(fmt.Sprintf("seed%d", i)))
	}
	tail := &trace.Profile{ID: "tail1", Alg: "PL", Status: trace.StatusOK, WallMicros: 900000}
	r.Record(tail)
	// Age the ring well past capacity with queries clearly below the
	// estimate; the tail profile must survive them.
	for i := 0; i < 10; i++ {
		r.Record(&trace.Profile{ID: fmt.Sprintf("after%d", i), Alg: "PL",
			Status: trace.StatusOK, WallMicros: 10})
	}
	if r.Get("tail1") != tail {
		t.Error("latency-tail profile evicted")
	}
}

// TestRecorderAllRetained: when every slot is retained, the oldest retained
// profile finally falls — the ring stays bounded.
func TestRecorderAllRetained(t *testing.T) {
	r := sizedRecorder(3, RecorderConfig{Site: "G"})
	for i := 0; i < 5; i++ {
		r.Record(&trace.Profile{ID: fmt.Sprintf("bad%d", i), Alg: "BL",
			Status: trace.StatusError, Error: "x", WallMicros: 100})
	}
	if got := len(r.Profiles()); got != 3 {
		t.Fatalf("ring holds %d, want 3", got)
	}
	if r.Get("bad0") != nil || r.Get("bad1") != nil {
		t.Error("oldest retained profiles not evicted under full-retained pressure")
	}
	if r.Get("bad4") == nil {
		t.Error("newest retained profile missing")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	reg := metrics.New()
	r := sizedRecorder(8, RecorderConfig{Site: "G", Metrics: reg})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p := okProfile(fmt.Sprintf("q%d-%d", i, j))
				if j%10 == 0 {
					p.Status = trace.StatusDegraded
				}
				r.Record(p)
				if j%7 == 0 {
					r.Profiles()
					r.Last()
				}
			}
		}(i)
	}
	wg.Wait()
	if n := reg.Snapshot().CounterValue("profiles_recorded_total", metrics.Labels{Site: "G"}); n != 800 {
		t.Errorf("recorded = %d, want 800", n)
	}
	if got := len(r.Profiles()); got != 8 {
		t.Errorf("ring holds %d, want 8", got)
	}
}

// recordedQueryProfile builds a profile with real spans (so the trace
// endpoints have a tree to render/export) and records it.
func recordedQueryProfile(rec *Recorder, qid string) *trace.Profile {
	tr := &trace.Tracer{}
	root := tr.StartSpan(0, "G", "PL").WithQuery(qid, "PL")
	c := tr.StartSpan(root.ID(), "DB1", "PL_C1").WithQuery(qid, "PL").WithPhases("O")
	c.End()
	root.End()
	p := trace.BuildProfile(qid, "PL", tr.Take(root.ID()))
	p.SetOutcome(2, 1, nil, nil)
	rec.Record(p)
	return p
}

func TestFlightRecorderEndpoints(t *testing.T) {
	reg := metrics.New()
	rec := NewRecorder(RecorderConfig{Site: "DB1", Metrics: reg})
	recordedQueryProfile(rec, "q1")

	s, err := Serve("127.0.0.1:0", "DB1", reg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// /debug/queries: the text listing names the query and links its trace.
	code, body := get(t, s.Addr(), "/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("queries: status %d", code)
	}
	for _, want := range []string{"query", "wall(ms)", "q1", "PL", "ok", "/debug/trace/q1.json"} {
		if !strings.Contains(body, want) {
			t.Errorf("queries listing missing %q:\n%s", want, body)
		}
	}

	// ?format=json round-trips the profiles.
	code, body = get(t, s.Addr(), "/debug/queries?format=json")
	if code != http.StatusOK {
		t.Fatalf("queries json: status %d", code)
	}
	var profiles []*trace.Profile
	if err := json.Unmarshal([]byte(body), &profiles); err != nil {
		t.Fatalf("queries json: %v in %q", err, body)
	}
	if len(profiles) != 1 || profiles[0].ID != "q1" || profiles[0].Certain != 2 {
		t.Errorf("queries json = %+v", profiles)
	}

	// /debug/trace/q1: text header plus span tree.
	code, body = get(t, s.Addr(), "/debug/trace/q1")
	if code != http.StatusOK || !strings.Contains(body, "query q1 alg=PL") ||
		!strings.Contains(body, "PL_C1") {
		t.Errorf("trace text: %d %q", code, body)
	}

	// /debug/trace/q1.json: valid Chrome trace-event JSON covering the sites.
	code, body = get(t, s.Addr(), "/debug/trace/q1.json")
	if code != http.StatusOK {
		t.Fatalf("trace json: status %d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace json invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace json has no events")
	}
	for _, site := range []string{"DB1", "G"} {
		if !strings.Contains(body, site) {
			t.Errorf("trace json missing site %s", site)
		}
	}

	// Unknown (or aged-out) query IDs answer 404.
	code, body = get(t, s.Addr(), "/debug/trace/nope.json")
	if code != http.StatusNotFound || !strings.Contains(body, "aged out") {
		t.Errorf("missing profile: %d %q", code, body)
	}

	// /healthz carries the build version.
	code, body = get(t, s.Addr(), "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"version":`) {
		t.Errorf("healthz version: %d %q", code, body)
	}

	// /metrics refreshes the runtime gauges on scrape.
	code, body = get(t, s.Addr(), "/metrics?format=text")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{"go_goroutines", "go_gomaxprocs", "go_heap_alloc_bytes",
		"profiles_recorded_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The pprof surface is mounted.
	code, body = get(t, s.Addr(), "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("pprof cmdline: %d %q", code, body)
	}
}

// TestQueriesEndpointNilRecorder: a process wired without a flight recorder
// still answers its listing endpoints (empty), not a panic.
func TestQueriesEndpointNilRecorder(t *testing.T) {
	s, err := Serve("127.0.0.1:0", "DB9", metrics.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s.Addr(), "/debug/queries")
	if code != http.StatusOK || !strings.Contains(body, "no queries recorded") {
		t.Errorf("queries without recorder: %d %q", code, body)
	}
	code, _ = get(t, s.Addr(), "/debug/trace/q1.json")
	if code != http.StatusNotFound {
		t.Errorf("trace without recorder: %d", code)
	}
}

// sizedRecorder is a recorder whose ring holds n profiles.
func sizedRecorder(n int, cfg RecorderConfig) *Recorder {
	r := NewRecorder(cfg)
	r.size = n
	return r
}
