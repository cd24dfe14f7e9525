package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/hetfed/hetfed/internal/metrics"
)

// TestScrapeRoundTrip: a snapshot served as the /metrics JSON form scrapes
// back into an equivalent snapshot.
func TestScrapeRoundTrip(t *testing.T) {
	r := metrics.New()
	at := metrics.Labels{Site: "G", Alg: "BL"}
	r.Counter("queries_total", at).Add(9)
	r.Gauge("queries_inflight", metrics.Labels{Site: "G"}).Set(2)
	r.Histogram("query_latency_us", at).ObserveWithExemplar(1234, "rq1")
	want := r.Snapshot()

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		WriteJSON(w, want)
	}))
	defer srv.Close()

	got, err := Scrape(context.Background(), srv.URL+"/metrics")
	if err != nil {
		t.Fatalf("Scrape: %v", err)
	}
	if n := got.CounterValue("queries_total", at); n != 9 {
		t.Errorf("scraped counter = %d, want 9", n)
	}
	smp, ok := got.Get("query_latency_us", at)
	if !ok || smp.Hist == nil || smp.Hist.Count != 1 {
		t.Fatalf("scraped histogram = %+v", smp)
	}
	traceID := ""
	for _, ex := range smp.Hist.Exemplars {
		if ex != nil {
			traceID = ex.TraceID
		}
	}
	if traceID != "rq1" {
		t.Errorf("scraped exemplar = %q, want rq1", traceID)
	}
	// Deltas over scraped snapshots: the double-count guard works across
	// the wire too.
	if d := got.Delta(want); d.Sum("queries_total") != 0 {
		t.Errorf("scraped self-delta = %d, want 0", d.Sum("queries_total"))
	}
}

// TestScrapeErrors: a non-200 answer, an unreachable endpoint and a body that
// is not the expected JSON are each an error naming the URL.
func TestScrapeErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/garbage" {
			w.Write([]byte("{not json"))
			return
		}
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	for _, url := range []string{srv.URL, "http://127.0.0.1:1/metrics", srv.URL + "/garbage"} {
		if _, err := Scrape(context.Background(), url); err == nil {
			t.Errorf("Scrape(%s) succeeded", url)
		}
	}
}
