package obs

import (
	"encoding/json"
	"io"
	"net/http"
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
	if snap.CounterValue("requests_total", metrics.Labels{Site: "DB1", Alg: "BL"}) != 3 {
		t.Errorf("metrics JSON lost the counter: %s", body)
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

// TestHealthzBreakers: health sources feed the /healthz body; a non-closed
// breaker flips the status to degraded (still 200 — the process is alive).
func TestHealthzBreakers(t *testing.T) {
	states := map[string]string{"DB2": "closed", "DB3": "closed"}
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
	if !strings.Contains(body, `"DB3":"closed"`) {
		t.Errorf("healthz lacks breaker states: %q", body)
	}

	states["DB3"] = "open"
	code, body = get(t, s.Addr(), "/healthz")
	if code != http.StatusOK {
		t.Errorf("degraded healthz status code = %d, want 200", code)
	}
	var got struct {
		Status   string            `json:"status"`
		Breakers map[string]string `json:"breakers"`
		Degraded []string          `json:"degraded_peers"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("healthz JSON: %v in %q", err, body)
	}
	if got.Status != "degraded" || got.Breakers["DB3"] != "open" ||
		len(got.Degraded) != 1 || got.Degraded[0] != "DB3" {
		t.Errorf("degraded healthz = %+v", got)
	}
}
