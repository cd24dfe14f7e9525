package agg

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/trace"
)

// fakeSite serves a registry's snapshot as a minimal obs surface.
func fakeSite(t *testing.T, reg *metrics.Registry, health string, queries []*trace.Profile) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			obs.WriteJSON(w, reg.Snapshot())
		case "/healthz":
			io.WriteString(w, health)
		case "/debug/queries":
			json.NewEncoder(w).Encode(queries)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// newTestScraper builds a scraper over the targets with an injected clock;
// the returned advance func moves the clock and runs one scrape pass.
func newTestScraper(t *testing.T, cfg Config) (*Scraper, func(step time.Duration)) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_000_000, 0)
	s.nowFn = func() time.Time { return now }
	return s, func(step time.Duration) {
		now = now.Add(step)
		s.ScrapeOnce(context.Background())
	}
}

func TestRollupWindowStats(t *testing.T) {
	coord := metrics.New() // coordinator-style target: query metrics
	site := metrics.New()  // component-site-style target: request metrics
	srv := fakeSite(t, site, `{"status":"ok","uptime_seconds":42,"breakers":{"DB2":"closed"}}`, nil)

	s, advance := newTestScraper(t, Config{
		Interval: time.Second,
		Metrics:  metrics.New(),
		Targets: []Target{
			{Site: "G", Local: coord.Snapshot},
			{Site: "DB1", URL: srv.URL},
		},
	})

	advance(0) // first pass: baselines only
	// 20 queries at 1ms each over the next 2 simulated seconds, half degraded.
	for i := 0; i < 20; i++ {
		coord.Counter("queries_total", metrics.Labels{Site: "G", Alg: "BL"}).Add(1)
		coord.Histogram("query_latency_us", metrics.Labels{Site: "G", Alg: "BL"}).Observe(1000)
	}
	coord.Counter("degraded_queries_total", metrics.Labels{Site: "G", Alg: "BL"}).Add(10)
	site.Counter("requests_total", metrics.Labels{Site: "DB1", Alg: "BL"}).Add(40)
	site.Histogram("request_latency_us", metrics.Labels{Site: "DB1", Alg: "BL"}).Observe(500)
	advance(2 * time.Second)

	roll := s.Rollup()
	if roll.Fed.SitesLive != 2 || roll.Fed.SitesTotal != 2 {
		t.Fatalf("liveness = %d/%d, want 2/2", roll.Fed.SitesLive, roll.Fed.SitesTotal)
	}
	var g, db1 SiteStatus
	for _, row := range roll.Sites {
		switch row.Site {
		case "G":
			g = row
		case "DB1":
			db1 = row
		}
	}
	if g.Window.Queries != 20 || g.Window.QPS != 10 {
		t.Errorf("G window = %+v, want 20 queries at 10 qps", g.Window)
	}
	if g.Window.DegradedPct != 50 {
		t.Errorf("G degraded%% = %.1f, want 50", g.Window.DegradedPct)
	}
	if g.Window.P99Ms <= 0 {
		t.Errorf("G p99 = %.3fms, want > 0", g.Window.P99Ms)
	}
	if db1.Window.Queries != 40 || db1.Window.QPS != 20 {
		t.Errorf("DB1 window (request fallback) = %+v, want 40 at 20 qps", db1.Window)
	}
	if db1.Status != "ok" || db1.UptimeS != 42 || db1.Conditions["DB2"] != "closed" {
		t.Errorf("DB1 health not folded in: %+v", db1)
	}
	// The federation window prefers the coordinator's end-to-end
	// queries_total over the sites' requests_total — adding the two
	// families would double-count every fanned-out query.
	if roll.Fed.Window.Queries != 20 {
		t.Errorf("fed queries = %d, want 20 (no request double-count)", roll.Fed.Window.Queries)
	}

	// Text rendering carries the rows.
	text := roll.Text()
	if !strings.Contains(text, "DB1") || !strings.Contains(text, "2/2 live") {
		t.Errorf("rollup text missing content:\n%s", text)
	}
}

// A restarting site must not corrupt windowed rates: the cumulative series
// stays monotone and the reset lands in scrape_resets_total.
func TestScrapeCounterReset(t *testing.T) {
	reg := metrics.New()
	reg.Counter("requests_total", metrics.Labels{Site: "DB1"}).Add(100)
	var current = reg // swapped to simulate restart
	srv := fakeSite(t, metrics.New(), "", nil)
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		obs.WriteJSON(w, current.Snapshot())
	})

	self := metrics.New()
	s, advance := newTestScraper(t, Config{
		Interval: time.Second, Metrics: self,
		Targets: []Target{{Site: "DB1", URL: srv.URL}},
	})
	advance(0)
	current.Counter("requests_total", metrics.Labels{Site: "DB1"}).Add(20)
	advance(time.Second)

	// "Restart": fresh registry, counter back near zero.
	current = metrics.New()
	current.Counter("requests_total", metrics.Labels{Site: "DB1"}).Add(5)
	advance(time.Second)

	if d, span, ok := s.WindowDelta(time.Minute); !ok || span != 2*time.Second {
		t.Fatalf("window delta: ok=%v span=%v, want 2s of history", ok, span)
	} else if n := d.Sum("requests_total"); n != 25 {
		t.Errorf("windowed requests across restart = %d, want 25 (20 before + 5 after)", n)
	}
	resets := self.Snapshot().CounterValue("scrape_resets_total",
		metrics.Labels{Site: "G", Peer: "DB1"})
	if resets != 1 {
		t.Errorf("scrape_resets_total = %d, want 1", resets)
	}
	if roll := s.Rollup(); roll.Sites[0].Resets != 1 {
		t.Errorf("rollup resets = %d, want 1", roll.Sites[0].Resets)
	}
}

// TestScrapeSurvivesMalformedHistogram: one site's /metrics body must not
// take the aggregator down. This histogram lists fewer exemplars than
// counts; the second scrape differences and merges it.
func TestScrapeSurvivesMalformedHistogram(t *testing.T) {
	n := 1
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, `{"samples":[{"name":"request_latency_us","labels":{"site":"DB1"},"kind":"histogram",
			"histogram":{"counts":[%d,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum":%d,"count":%[1]d,
			"exemplars":[{"trace_id":"q1","value":10}]}}]}`, n, 10*n)
	}))
	t.Cleanup(srv.Close)

	s, advance := newTestScraper(t, Config{Interval: time.Second, Targets: []Target{{Site: "DB1", URL: srv.URL}}})
	advance(0)
	n = 3
	advance(time.Second)

	if live, _ := s.Liveness(); live != 1 {
		t.Fatal("the site that sent the histogram is not live")
	}
	d, _, ok := s.WindowDelta(time.Minute)
	if !ok {
		t.Fatal("no window after two scrapes")
	}
	if count, sum := d.HistTotals("request_latency_us"); count != 2 || sum != 20 {
		t.Errorf("windowed histogram = %d observations, sum %g; want 2, 20", count, sum)
	}
}

func TestStalenessAndFailures(t *testing.T) {
	srv := fakeSite(t, metrics.New(), `{"status":"ok"}`, nil)
	self := metrics.New()
	s, advance := newTestScraper(t, Config{
		Interval: time.Second, Metrics: self, // stale after 3s
		Targets: []Target{{Site: "DB1", URL: srv.URL}},
	})
	advance(0)
	if live, total := s.Liveness(); live != 1 || total != 1 {
		t.Fatalf("liveness after scrape = %d/%d", live, total)
	}

	srv.Close() // site dies
	advance(time.Second)
	advance(time.Second)
	advance(2 * time.Second) // 4s since last success > 3 intervals

	if live, _ := s.Liveness(); live != 0 {
		t.Errorf("dead site still live")
	}
	roll := s.Rollup()
	row := roll.Sites[0]
	if row.Live || row.Status != "unreachable" || row.ConsecFails != 3 || row.LastError == "" {
		t.Errorf("dead site row = %+v", row)
	}
	if row.StaleS < 3.9 {
		t.Errorf("stale_s = %.1f, want ~4", row.StaleS)
	}
	fails := self.Snapshot().CounterValue("scrape_failures_total",
		metrics.Labels{Site: "G", Peer: "DB1"})
	if fails != 3 {
		t.Errorf("scrape_failures_total = %d, want 3", fails)
	}
}

func TestSlowQueriesMergeDedup(t *testing.T) {
	// The coordinator and DB1 both recorded rq1 (the coordinator saw the
	// longer end-to-end wall); DB1 alone recorded rq2.
	coordQ := []*trace.Profile{
		{ID: "rq1-aaa", Alg: "BL", Status: "ok", WallMicros: 9000, Certain: 5},
		{ID: "rq3-ccc", Alg: "CA", Status: "ok", WallMicros: 500},
	}
	siteQ := []*trace.Profile{
		{ID: "rq1-aaa", Alg: "BL", Status: "ok", WallMicros: 4000, Certain: 5},
		{ID: "rq2-bbb", Alg: "PL", Status: "degraded", WallMicros: 12000},
	}
	srv := fakeSite(t, metrics.New(), `{"status":"ok"}`, siteQ)

	s, _ := newTestScraper(t, Config{
		Interval: time.Second,
		Targets: []Target{
			{Site: "G", Local: metrics.New().Snapshot,
				LocalQueries: func() []*trace.Profile { return coordQ }},
			{Site: "DB1", URL: srv.URL},
		},
	})
	qs := s.SlowQueries(context.Background(), 0)
	if len(qs) != 3 {
		t.Fatalf("merged %d queries, want 3: %+v", len(qs), qs)
	}
	if qs[0].ID != "rq2-bbb" || qs[1].ID != "rq1-aaa" || qs[2].ID != "rq3-ccc" {
		t.Errorf("order = %s %s %s, want slowest first", qs[0].ID, qs[1].ID, qs[2].ID)
	}
	if qs[1].WallMicros != 9000 {
		t.Errorf("deduped rq1 wall = %.0f, want the max 9000", qs[1].WallMicros)
	}
	if got := strings.Join(qs[1].Sources, ","); got != "G,DB1" {
		t.Errorf("rq1 sources = %q, want both G and DB1", got)
	}
	if got := strings.Join(qs[0].Sources, ","); got != "DB1" {
		t.Errorf("rq2 sources = %q, want DB1 alone", got)
	}
	if got := s.SlowQueries(context.Background(), 1); len(got) != 1 || got[0].ID != "rq2-bbb" {
		t.Errorf("limit 1 = %+v", got)
	}
}

func TestClusterHandlers(t *testing.T) {
	reg := metrics.New()
	s, advance := newTestScraper(t, Config{
		Interval: time.Second,
		Targets: []Target{{Site: "G", Local: reg.Snapshot,
			LocalQueries: func() []*trace.Profile {
				return []*trace.Profile{{ID: "rq9-fff", Alg: "BL", WallMicros: 777}}
			}}},
	})
	advance(0)
	mux := http.NewServeMux()
	s.Register(mux, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/cluster?format=json")
	var roll Rollup
	if code != 200 {
		t.Fatalf("/cluster: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &roll); err != nil {
		t.Fatalf("/cluster JSON: %v", err)
	}
	if roll.Fed.SitesTotal != 1 || roll.Sites[0].Site != "G" {
		t.Errorf("rollup = %+v", roll)
	}
	// The text body is the document's own text form.
	if code, body := get("/cluster"); code != 200 || body != roll.Text() {
		t.Errorf("/cluster text: %d %q, want %q", code, body, roll.Text())
	}

	code, body = get("/cluster/queries?format=json")
	var qs []obs.QuerySummary
	if code != 200 {
		t.Fatalf("/cluster/queries: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &qs); err != nil || len(qs) != 1 || qs[0].ID != "rq9-fff" {
		t.Errorf("/cluster/queries = %v (err %v)", qs, err)
	}
	if code, body := get("/cluster/queries"); code != 200 || body != obs.QueriesText(qs, "") {
		t.Errorf("/cluster/queries text: %d %q, want %q", code, body, obs.QueriesText(qs, ""))
	}
	if code, _ := get("/cluster/queries?n=bogus"); code != 400 {
		t.Errorf("bad n accepted: %d", code)
	}

	code, body = get("/cluster/alerts")
	if code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Errorf("/cluster/alerts stub: %d %q", code, body)
	}
}

// TestRepairStateColumn pins the repair column's compaction of the
// "antientropy:state" healthz condition, and that the conditions column
// hands the entry off to it instead of repeating it.
func TestRepairStateColumn(t *testing.T) {
	for state, want := range map[string]string{
		"ok(round=7, repaired=42B)":                    "ok r7",
		"suspect(Teacher,Student) round=3 repaired=0B": "SUSPECT(Teacher,Student)",
		"weird": "weird",
	} {
		if got := repairState(map[string]string{repairKey: state}); got != want {
			t.Errorf("repairState(%q) = %q, want %q", state, got, want)
		}
	}
	if got := repairState(nil); got != "-" {
		t.Errorf("repairState(nil) = %q, want -", got)
	}
	conds := map[string]string{
		repairKey: "suspect(Teacher) round=1 repaired=0B",
		"DB2":     "open", "DB3": "closed", "wal:engine": "ok(seq=9)",
	}
	if got := conditionsText(conds); got != "DB2=open (+2 ok)" {
		t.Errorf("conditionsText = %q, want the breaker spelled out, the healthy counted, the repair state left to its column", got)
	}
	if got := conditionsText(map[string]string{repairKey: "ok(round=1)"}); got != "-" {
		t.Errorf("conditionsText of the repair state alone = %q, want -", got)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{},
		{Targets: []Target{{Site: ""}}},
		{Targets: []Target{{Site: "A", URL: "x"}, {Site: "A", URL: "y"}}},
		{Targets: []Target{{Site: "A"}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestStartStopIdempotent(t *testing.T) {
	reg := metrics.New()
	s, err := New(Config{
		Interval: 10 * time.Millisecond,
		Targets:  []Target{{Site: "G", Local: reg.Snapshot}},
	})
	if err != nil {
		t.Fatal(err)
	}
	passes := make(chan struct{}, 64)
	s.SetOnScrape(func() {
		select {
		case passes <- struct{}{}:
		default:
		}
	})
	s.Start()
	s.Start() // no-op
	select {
	case <-passes:
	case <-time.After(2 * time.Second):
		t.Fatal("no scrape pass within 2s")
	}
	s.Stop()
	s.Stop() // no-op
	if _, _, ok := s.WindowDelta(time.Minute); ok {
		_ = fmt.Sprint(ok) // one sample only: rates undefined, but must not panic
	}
}
