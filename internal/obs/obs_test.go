package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/trace"
)

func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := metrics.New()
	reg.Counter("requests_total", metrics.Labels{Site: "DB1", Alg: "BL"}).Add(3)
	reg.Histogram("request_latency_us", metrics.Labels{Site: "DB1", Alg: "BL"}).Observe(120)
	reg.Gauge("queries_inflight", metrics.Labels{Site: "DB1"}).Set(2)
	reg.Histogram("query_latency_us", metrics.Labels{Site: "DB1", Alg: "BL"}).ObserveWithExemplar(1234, "rq1")
	tr := &trace.Tracer{}
	sp := tr.StartSpan(0, "DB1", "serve:local").WithQuery("rq1", "BL").WithPhases("PO")
	sp.End()
	rec := NewRecorder(RecorderConfig{Site: "DB1"})
	rec.Record(trace.BuildProfile("rq1", "BL", tr.Take(sp.ID())))

	s, err := Serve("127.0.0.1:0", "DB1", reg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Site() != "DB1" {
		t.Errorf("Site() = %q", s.Site())
	}

	code, body := get(t, s.Addr(), "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) ||
		!strings.Contains(body, `"site":"DB1"`) {
		t.Errorf("healthz: %d %q", code, body)
	}

	code, body = get(t, s.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics JSON: %v in %q", err, body)
	}

	code, body = get(t, s.Addr(), "/metrics?format=text")
	if code != http.StatusOK || !strings.Contains(body, "requests_total") ||
		!strings.Contains(body, "request_latency_us") {
		t.Errorf("metrics text: %d %q", code, body)
	}

	code, body = get(t, s.Addr(), "/debug/trace/last")
	if code != http.StatusOK || !strings.Contains(body, "serve:local") {
		t.Errorf("trace/last: %d %q", code, body)
	}

	// The registry has two expositions, both on /metrics; there is no third.
	if code, _ = get(t, s.Addr(), "/debug/vars"); code != http.StatusNotFound {
		t.Errorf("debug/vars: %d, want 404", code)
	}
}

// TestScrapeRoundTrip: the JSON form a served /metrics answers decodes back
// to the registry's snapshot, sample for sample (the go_* runtime gauges
// aside: each request refreshes them), exemplars included; so a delta over
// two decoded bodies does not double-count.
func TestScrapeRoundTrip(t *testing.T) {
	reg := metrics.New()
	at := metrics.Labels{Site: "G", Alg: "BL"}
	reg.Counter("queries_total", at).Add(9)
	reg.Gauge("queries_inflight", metrics.Labels{Site: "G"}).Set(2)
	reg.Histogram("query_latency_us", at).ObserveWithExemplar(1234, "rq1")
	s, err := Serve("127.0.0.1:0", "G", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics JSON: %v in %q", err, body)
	}
	for _, want := range reg.Snapshot().Samples {
		if strings.HasPrefix(want.Name, "go_") {
			continue
		}
		if got, ok := snap.Get(want.Name, want.Labels); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("metrics JSON decodes %s%s as %+v, want %+v", want.Name, want.Labels, got, want)
		}
	}
	if n := snap.CounterValue("queries_total", at); n != 9 {
		t.Errorf("decoded counter = %d, want 9", n)
	}
	smp, ok := snap.Get("query_latency_us", at)
	if !ok || smp.Hist == nil || smp.Hist.Count != 1 {
		t.Fatalf("decoded histogram = %+v", smp)
	}
	traceID := ""
	for _, ex := range smp.Hist.Exemplars {
		if ex != nil {
			traceID = ex.TraceID
		}
	}
	if traceID != "rq1" {
		t.Errorf("decoded exemplar = %q, want rq1", traceID)
	}
	if d := snap.Delta(reg.Snapshot()); d.Sum("queries_total") != 0 {
		t.Errorf("decoded self-delta = %d, want 0", d.Sum("queries_total"))
	}
}

func TestTraceLastEmpty(t *testing.T) {
	s, err := Serve("127.0.0.1:0", "DB2", metrics.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s.Addr(), "/debug/trace/last")
	if code != http.StatusOK || !strings.Contains(body, "no spans") {
		t.Errorf("empty trace/last: %d %q", code, body)
	}
}

// TestTraceLastServesNewestProfile: /debug/trace/last is the newest recorded
// profile, in text and as Chrome trace JSON, like any /debug/trace/{id}.
func TestTraceLastServesNewestProfile(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Site: "G"})
	recordedQueryProfile(rec, "q1")
	recordedQueryProfile(rec, "q2")
	s, err := Serve("127.0.0.1:0", "G", metrics.New(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s.Addr(), "/debug/trace/last")
	if code != http.StatusOK || !strings.Contains(body, "query q2 alg=PL") ||
		!strings.Contains(body, "PL_C1 [O] @DB1") || strings.Contains(body, "q1") {
		t.Errorf("trace/last: %d %q, want q2's tree alone", code, body)
	}
	code, body = get(t, s.Addr(), "/debug/trace/last.json")
	if code != http.StatusOK || !strings.Contains(body, `"query":"q2"`) {
		t.Errorf("trace/last.json: %d %q", code, body)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", "DBX", metrics.New(), nil); err == nil {
		t.Error("bad address accepted")
	}
}

// TestHealthzConditions: health sources feed the /healthz body under
// "conditions"; an entry that is not ok flips the status to degraded (still
// 200 — the process is alive).
func TestHealthzConditions(t *testing.T) {
	states := map[string]string{"antientropy:state": "ok(round=1, repaired=0B)", "wal:engine": "ok(seq=4)"}
	s, err := Serve("127.0.0.1:0", "DB1", metrics.New(), nil,
		func() map[string]string { return states })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s.Addr(), "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthy healthz: %d %q", code, body)
	}
	if !strings.Contains(body, `"conditions":{`) || !strings.Contains(body, `"wal:engine":"ok(seq=4)"`) {
		t.Errorf("healthz lacks its conditions: %q", body)
	}

	states["wal:engine"] = "stopped"
	code, body = get(t, s.Addr(), "/healthz")
	if code != http.StatusOK {
		t.Errorf("degraded healthz status code = %d, want 200", code)
	}
	var got struct {
		Status     string            `json:"status"`
		Conditions map[string]string `json:"conditions"`
		Degraded   []string          `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("healthz JSON: %v in %q", err, body)
	}
	if got.Status != "degraded" || got.Conditions["wal:engine"] != "stopped" ||
		len(got.Degraded) != 1 || got.Degraded[0] != "wal:engine" {
		t.Errorf("degraded healthz = %+v", got)
	}
}
