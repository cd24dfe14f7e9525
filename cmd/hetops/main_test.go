package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/obs/agg"
	"github.com/hetfed/hetfed/internal/obs/slo"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// fixture is a representative combined snapshot: one live site, one stale,
// a firing alert, a degraded slow query.
func fixture() snapshot {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return snapshot{
		Cluster: agg.Rollup{
			Site: "G", Time: at, IntervalS: 2, WindowS: 60,
			Fed: agg.FedStats{SitesLive: 1, SitesTotal: 2,
				Window: agg.WindowStats{SpanS: 60, Queries: 120, QPS: 2,
					P50Ms: 1.2, P99Ms: 8.4, DegradedPct: 5}},
			Sites: []agg.SiteStatus{
				{Site: "G", Live: true, StaleS: 0.5, Status: "ok",
					Conditions: map[string]string{"DB1": "closed", "wal:engine": "ok(seq=9)",
						"antientropy:state": "ok(round=4, repaired=123B)"},
					UptimeS: 100,
					Window: agg.WindowStats{SpanS: 60, Queries: 120, QPS: 2,
						P50Ms: 1.2, P99Ms: 8.4, DegradedPct: 5}},
				{Site: "DB1", URL: "http://127.0.0.1:8101", Live: false, StaleS: 12,
					ConsecFails: 6, LastError: "connection refused",
					Status: "unreachable", Resets: 1},
			},
		},
		Alerts: []slo.Alert{{
			Rule: "availability >= 0.99", Raw: "availability >= 0.99",
			State: "firing", Since: at, LastEval: at,
			Value: 0.5, Short: 0.5, Threshold: 0.99, Unit: "ratio",
		}},
		Queries: []obs.QuerySummary{{
			ID: "rq3-00001f", Alg: "BL", Status: "degraded", WallMicros: 12345,
			Certain: 5, Maybe: 2, Unavailable: []string{"DB1"},
			Sources: []string{"G"},
		}},
	}
}

// fakeCoordinator serves the three cluster endpoints from a fixture the
// way the real coordinator does.
func fakeCoordinator(t *testing.T, snap snapshot) *httptest.Server {
	t.Helper()
	serve := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			t.Errorf("encode: %v", err)
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/cluster":
			serve(w, snap.Cluster)
		case "/cluster/alerts":
			serve(w, snap.Alerts)
		case "/cluster/queries":
			serve(w, snap.Queries)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// The -once -json document must round-trip: fetch → marshal → unmarshal
// reproduces the exact snapshot, so scripts can consume and re-emit it.
func TestOnceJSONRoundTrip(t *testing.T) {
	want := fixture()
	srv := fakeCoordinator(t, want)

	var out bytes.Buffer
	if err := run([]string{"-cluster", srv.URL, "-once", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	golden(t, "once_json.golden", out.String(), srv.URL)
	var got snapshot
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("hetops -once -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// And the emitted document itself re-marshals byte-identically.
	again, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(again)) != strings.TrimSpace(out.String()) {
		t.Errorf("re-marshal differs from emitted document")
	}
}

// golden compares got with testdata/<name>, rewriting the file under
// -update. The fake coordinator's address is the one thing that varies.
func golden(t *testing.T, name, got, addr string) {
	t.Helper()
	got = strings.ReplaceAll(got, addr, "http://COORD")
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs (rerun with -update to accept):\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestOnceTextRender pins the dashboard and, through it, the three text
// bodies: -once stacks exactly what /cluster, /cluster/alerts and
// /cluster/queries serve (the latter with the coordinator's base before each
// trace link), uncoloured.
func TestOnceTextRender(t *testing.T) {
	snap := fixture()
	srv := fakeCoordinator(t, snap)
	var out bytes.Buffer
	if err := run([]string{"-cluster", srv.URL, "-once"}, &out); err != nil {
		t.Fatal(err)
	}
	golden(t, "once.golden", out.String(), srv.URL)
	for name, body := range map[string]string{
		"/cluster":         snap.Cluster.Text(),
		"/cluster/alerts":  slo.AlertsText(snap.Alerts),
		"/cluster/queries": obs.QueriesText(snap.Queries, srv.URL),
	} {
		if !strings.Contains(out.String(), body) {
			t.Errorf("-once does not carry %s's text body:\n%s", name, body)
		}
	}
	if strings.Contains(out.String(), "\x1b[") {
		t.Errorf("-once output contains ANSI escapes:\n%s", out.String())
	}

	// Live mode paints the words an operator must not miss and nothing else:
	// stripped of the escapes, it is the -once text.
	var live bytes.Buffer
	render(&live, snap, srv.URL, true)
	for _, want := range []string{
		"\x1b[31mstale(12s)\x1b[0m", "\x1b[31munreachable\x1b[0m", "\x1b[31mFIRING\x1b[0m",
		"\x1b[32mlive\x1b[0m", "\x1b[1mALERTS\x1b[0m", "\x1b[33mdegraded ",
	} {
		if !strings.Contains(live.String(), want) {
			t.Errorf("live render lacks %q:\n%s", want, live.String())
		}
	}
	if plain := regexp.MustCompile(`\x1b\[\d+m`).ReplaceAllString(live.String(), ""); plain != out.String() {
		t.Errorf("colours changed the text:\n%s", plain)
	}
}

func TestFetchPropagatesErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no aggregator here", http.StatusNotFound)
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	if _, err := fetch(context.Background(), client, srv.URL, 5); err == nil {
		t.Error("404 surface accepted")
	}
	var out bytes.Buffer
	if err := run([]string{"-cluster", srv.URL, "-once"}, &out); err == nil {
		t.Error("run -once against a 404 surface succeeded")
	}
}
