package slo

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
)

func TestParseRule(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
	}{
		{"query_latency p99 < 50ms over 1m",
			Rule{Metric: "query_latency", Agg: "p99", Q: 0.99, Op: "<",
				Threshold: 50_000, Unit: "us", Window: time.Minute}},
		{"query_latency < 10ms",
			Rule{Metric: "query_latency", Agg: "p99", Q: 0.99, Op: "<",
				Threshold: 10_000, Unit: "us", Window: time.Minute}},
		{"query_latency p50 <= 2ms over 30s",
			Rule{Metric: "query_latency", Agg: "p50", Q: 0.50, Op: "<=",
				Threshold: 2_000, Unit: "us", Window: 30 * time.Second}},
		{"slow: query_latency mean < 5ms over 45s",
			Rule{Name: "slow", Metric: "query_latency", Agg: "mean", Op: "<",
				Threshold: 5_000, Unit: "us", Window: 45 * time.Second}},
		{"degraded_queries ratio < 1% over 1m",
			Rule{Metric: "degraded_queries", Agg: "ratio", Op: "<",
				Threshold: 0.01, Unit: "ratio", Window: time.Minute}},
		{"degraded < 0.05",
			Rule{Metric: "degraded_queries", Agg: "ratio", Op: "<",
				Threshold: 0.05, Unit: "ratio", Window: time.Minute}},
		{"errors ratio < 0.5% over 30s",
			Rule{Metric: "request_errors", Agg: "ratio", Op: "<",
				Threshold: 0.005, Unit: "ratio", Window: 30 * time.Second}},
		{"availability >= 0.99",
			Rule{Metric: "availability", Agg: "ratio", Op: ">=",
				Threshold: 0.99, Unit: "ratio", Instant: true}},
		{"availability >= 99%",
			Rule{Metric: "availability", Agg: "ratio", Op: ">=",
				Threshold: 0.99, Unit: "ratio", Instant: true}},
		{"maybe_rows <= 20% over 30s",
			Rule{Metric: "maybe_rows", Agg: "ratio", Op: "<=",
				Threshold: 0.20, Unit: "ratio", Window: 30 * time.Second}},
		{"floor: throughput >= 2000",
			Rule{Name: "floor", Metric: "throughput", Agg: "rate", Op: ">=",
				Threshold: 2000, Unit: "rate", Window: time.Minute}},
		{"request_latency p95 < 3ms",
			Rule{Metric: "request_latency", Agg: "p95", Q: 0.95, Op: "<",
				Threshold: 3_000, Unit: "us", Window: time.Minute}},
	}
	for _, c := range cases {
		got, err := ParseRule(c.in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.in, err)
			continue
		}
		c.want.Raw = c.in
		if c.want.Name == "" {
			c.want.Name = c.in
		}
		if got != c.want {
			t.Errorf("ParseRule(%q)\n got %+v\nwant %+v", c.in, got, c.want)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"latency p99 < 50ms",                  // unknown metric
		"query_latency p99 50ms",              // no operator
		"query_latency p99 < banana",          // bad threshold
		"query_latency p0 < 50ms",             // bad quantile
		"query_latency ratio < 1%",            // agg/metric mismatch
		"degraded_queries p99 < 1%",           // agg/metric mismatch
		"availability >= 0.99 over 1m",        // instant metric with window
		"query_latency p99 < 50ms over x",     // bad window
		"query_latency p99 < 50ms trailing q", // trailing junk
		"query_latency pNaN < 50ms",           // a quantile that is not a number
		"query_latency p99 < 1ns",             // below the microsecond a threshold is kept in
		"throughput >= 20%",                   // a rate is not a share
		"throughput >= NaN",                   // not a threshold
		"maybe_rows p99 < 1%",                 // agg/metric mismatch
	} {
		if r, err := ParseRule(in); err == nil {
			t.Errorf("ParseRule(%q) accepted: %+v", in, r)
		}
	}
}

// TestParseRuleRefusesWindowBeyondHistory: the aggregator keeps one minute
// of each site's history, so a longer window would silently be judged over
// that minute. The parser refuses it and names the limit; a window of
// exactly the history is the default and parses.
func TestParseRuleRefusesWindowBeyondHistory(t *testing.T) {
	_, err := ParseRule("query_latency p99 < 50ms over 2m")
	if err == nil || !strings.Contains(err.Error(), "1m0s of history") {
		t.Errorf("ParseRule over 2m: err = %v, want a refusal naming the 1m0s limit", err)
	}
	if r, err := ParseRule("query_latency p99 < 50ms over 1m"); err != nil || r.Window != time.Minute {
		t.Errorf("ParseRule over 1m = %+v, %v; want a one-minute window", r, err)
	}
}

func TestParseRulesList(t *testing.T) {
	rules, err := ParseRules("query_latency p99 < 50ms; availability >= 0.99 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Metric != "query_latency" || rules[1].Metric != "availability" {
		t.Errorf("rules = %+v", rules)
	}
	if _, err := ParseRules(" ; "); err == nil {
		t.Error("empty list accepted")
	}
}

// fakeSource scripts the measurements the engine sees.
type fakeSource struct {
	reg   *metrics.Registry // served as every window's delta
	live  int
	total int
	empty bool
}

func (f *fakeSource) WindowDelta(w time.Duration) (metrics.Snapshot, time.Duration, bool) {
	if f.empty {
		return metrics.Snapshot{}, 0, false
	}
	return f.reg.Snapshot(), w, true
}
func (f *fakeSource) Liveness() (int, int) { return f.live, f.total }

func TestAvailabilityStateMachine(t *testing.T) {
	src := &fakeSource{reg: metrics.New(), live: 3, total: 3}
	reg := metrics.New()
	rules, err := ParseRules("availability >= 0.99")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Source: src, Rules: rules, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "ok" || a.Value != 1 {
		t.Fatalf("healthy: %+v", a)
	}

	// One site dies: an instant rule fires in a single evaluation (both
	// burn windows are the same instant measurement).
	src.live = 2
	e.Evaluate()
	a := e.Alerts()[0]
	if a.State != "firing" {
		t.Fatalf("degraded availability: %+v", a)
	}
	if a.Value < 0.66 || a.Value > 0.67 {
		t.Errorf("value = %f, want 2/3", a.Value)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Get("alerts_firing", metrics.Labels{Site: "G"}); v.Value != 1 {
		t.Errorf("alerts_firing = %d", v.Value)
	}
	labels := metrics.Labels{Site: "G", Phase: rules[0].Name}
	if v, _ := snap.Get("alerts_state", labels); v.Value != int64(StateFiring) {
		t.Errorf("alerts_state = %d", v.Value)
	}

	// Site returns: resolved.
	src.live = 3
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "ok" {
		t.Fatalf("recovered: %+v", a)
	}
	if n := reg.Snapshot().CounterValue("alerts_transitions_total", labels); n != 2 {
		t.Errorf("transitions = %d, want 2 (ok→firing→ok)", n)
	}
}

func TestBurnRateWarnThenFire(t *testing.T) {
	// Script long vs short measurements separately: the short window is
	// 5s (floored), the long 1m.
	longReg, shortReg := metrics.New(), metrics.New()
	src := &windowedSource{long: longReg, short: shortReg}
	rules, err := ParseRules("degraded_queries ratio < 1% over 1m")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Source: src, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}

	record := func(reg *metrics.Registry, total, degraded int64) {
		reg.Counter("queries_total", metrics.Labels{Site: "G"}).Add(total)
		reg.Counter("degraded_queries_total", metrics.Labels{Site: "G"}).Add(degraded)
	}

	// Burn begins: the short window violates, the long window still fine.
	record(longReg, 1000, 0)
	record(shortReg, 100, 50)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "warn" {
		t.Fatalf("short-only violation: %+v", a)
	}

	// Burn sustained: both windows violate → firing.
	record(longReg, 0, 500)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "firing" {
		t.Fatalf("sustained violation: %+v", a)
	}

	// Short window recovers while the long still remembers the burn:
	// draining → warn, then both clean → ok.
	src.short = metrics.New()
	record(src.short, 100, 0)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "warn" {
		t.Fatalf("draining: %+v", a)
	}
	src.long = metrics.New()
	record(src.long, 1000, 0)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "ok" {
		t.Fatalf("recovered: %+v", a)
	}
}

// TestMaybeShareAndThroughputRules: the two measures only a benchmark report
// could judge before are alert rules like the rest — the paper's own quality
// measure (maybe rows over returned rows) and queries per second of span —
// through both burn windows and with their units in the alert listing.
func TestMaybeShareAndThroughputRules(t *testing.T) {
	longReg, shortReg := metrics.New(), metrics.New()
	src := &windowedSource{long: longReg, short: shortReg}
	rules, err := ParseRules("maybe: maybe_rows <= 20% over 1m; floor: throughput >= 10 over 1m")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Source: src, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	record := func(reg *metrics.Registry, queries, certain, maybe int64) {
		reg.Counter("queries_total", metrics.Labels{Site: "G", Alg: "BL"}).Add(queries)
		reg.Counter("results_certain_total", metrics.Labels{Alg: "BL"}).Add(certain)
		reg.Counter("results_maybe_total", metrics.Labels{Alg: "BL"}).Add(maybe)
	}
	state := func() (maybe, floor Alert) {
		t.Helper()
		e.Evaluate()
		alerts := e.Alerts()
		return alerts[0], alerts[1]
	}

	// 1m of 1200 queries is 20/s; the 5s short window holds 100, also 20/s.
	// One row in ten is maybe: both rules hold in both windows.
	record(longReg, 1200, 900, 100)
	record(shortReg, 100, 90, 10)
	maybe, floor := state()
	if maybe.State != "ok" || maybe.Value != 0.1 || maybe.Unit != "ratio" {
		t.Errorf("healthy maybe share: %+v", maybe)
	}
	if floor.State != "ok" || floor.Value != 20 || floor.Short != 20 || floor.Unit != "rate" {
		t.Errorf("healthy throughput: %+v", floor)
	}

	// A site goes missing: the short window's rows turn maybe and its rate
	// halves below the floor — both rules warn on the short window alone.
	src.short = metrics.New()
	record(src.short, 40, 10, 30)
	maybe, floor = state()
	if maybe.State != "warn" || maybe.Short != 0.75 {
		t.Errorf("short-window maybe share: %+v", maybe)
	}
	if floor.State != "warn" || floor.Short != 8 {
		t.Errorf("short-window throughput: %+v", floor)
	}

	// Sustained: the long window follows and both fire.
	src.long = metrics.New()
	record(src.long, 480, 100, 300)
	maybe, floor = state()
	if maybe.State != "firing" || floor.State != "firing" || floor.Value != 8 {
		t.Errorf("sustained: %+v / %+v", maybe, floor)
	}
	text := AlertsText(e.Alerts())
	for _, want := range []string{"75.00%", "20.00%", "8.00/s", "10.00/s", "FIRING"} {
		if !strings.Contains(text, want) {
			t.Errorf("alert listing lacks %q:\n%s", want, text)
		}
	}

	// No rows returned at all: the share has nothing to judge and holds
	// vacuously; a throughput of zero is a measurement, and violates.
	src.long, src.short = metrics.New(), metrics.New()
	maybe, floor = state()
	if maybe.State != "ok" || maybe.HaveData {
		t.Errorf("empty window's maybe share: %+v", maybe)
	}
	if floor.State != "firing" || !floor.HaveData {
		t.Errorf("empty window's throughput: %+v", floor)
	}
}

// windowedSource serves different snapshots for the long and short burn
// windows (anything ≤ 10s is "short").
type windowedSource struct {
	long, short *metrics.Registry
}

func (w *windowedSource) WindowDelta(d time.Duration) (metrics.Snapshot, time.Duration, bool) {
	if d <= 10*time.Second {
		return w.short.Snapshot(), d, true
	}
	return w.long.Snapshot(), d, true
}
func (w *windowedSource) Liveness() (int, int) { return 1, 1 }

// No traffic in the window: rules hold vacuously and never flap.
func TestNoDataHolds(t *testing.T) {
	src := &fakeSource{empty: true, live: 0, total: 0}
	rules, _ := ParseRules("query_latency p99 < 1ms; availability >= 0.99")
	e, err := New(Config{Source: src, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	e.Evaluate()
	for _, a := range e.Alerts() {
		if a.State != "ok" || a.HaveData {
			t.Errorf("no-data alert = %+v, want vacuous ok", a)
		}
	}
}

func TestHandler(t *testing.T) {
	src := &fakeSource{reg: metrics.New(), live: 1, total: 2}
	rules, _ := ParseRules("avail: availability >= 0.99")
	e, err := New(Config{Source: src, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	e.Evaluate()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var alerts []Alert
	if err := json.Unmarshal(body, &alerts); err != nil {
		t.Fatalf("alerts JSON: %v in %q", err, body)
	}
	if len(alerts) != 1 || alerts[0].State != "firing" || alerts[0].Rule != "avail" {
		t.Errorf("alerts = %+v", alerts)
	}

	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "FIRING") || !strings.Contains(string(body), "avail") {
		t.Errorf("text body = %q", body)
	}
}

func TestNewValidation(t *testing.T) {
	src := &fakeSource{reg: metrics.New()}
	r, _ := ParseRule("availability >= 0.5")
	if _, err := New(Config{Rules: []Rule{r}}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(Config{Source: src}); err == nil {
		t.Error("no rules accepted")
	}
	if _, err := New(Config{Source: src, Rules: []Rule{r, r}}); err == nil {
		t.Error("duplicate rule names accepted")
	}
}
