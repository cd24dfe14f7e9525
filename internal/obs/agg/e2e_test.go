package agg_test

// End-to-end acceptance for the observability plane, over real TCP: three
// school sites each serving queries (remote.Server) and an obs surface
// (/metrics, /healthz), a coordinator scraping all of them plus itself,
// and an SLO engine judging the rollup. One site is killed mid-run — the
// cluster view must mark it stale and the availability SLO must fire —
// then restarted on the same addresses — the alert must resolve and the
// scraper must count the counter reset instead of folding a negative delta
// into the rollup. The whole plane must tear down without leaking
// goroutines.

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/obs/agg"
	"github.com/hetfed/hetfed/internal/obs/slo"
	"github.com/hetfed/hetfed/internal/remote"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

const (
	scrapeEvery = 50 * time.Millisecond
	// staleAfter is wider than the scraper's three intervals: under
	// the race detector on a loaded machine a round over four targets takes
	// longer than that now and then, a live site reads as stale for an
	// instant, and every condition below that wants all four live at once
	// flickers. A dead site is still found in well under a second.
	staleAfter = 10 * scrapeEvery
)

// serveObs serves a site's registry as its obs surface on addr.
func serveObs(t *testing.T, sid object.SiteID, reg *metrics.Registry, addr string) *obs.Server {
	t.Helper()
	o, err := obs.Serve(addr, string(sid), reg, nil, nil)
	if err != nil {
		t.Fatalf("obs.Serve(%s, %s): %v", sid, addr, err)
	}
	return o
}

func waitFor(t *testing.T, desc string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", timeout, desc)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}

func siteRow(r agg.Rollup, name string) *agg.SiteStatus {
	for i := range r.Sites {
		if r.Sites[i].Site == name {
			return &r.Sites[i]
		}
	}
	return nil
}

func alertState(alerts []slo.Alert, metric string) string {
	for _, a := range alerts {
		if strings.Contains(a.Rule, metric) {
			return a.State
		}
	}
	return ""
}

func TestClusterObservabilityE2E(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// The sites serve queries (remote.Server) and an obs surface each; a
	// restarted site gets a fresh registry and database — the durable-site
	// crash+restart shape. The coordinator queries the sites over TCP,
	// records profiles, and hosts the aggregation plane (scraper + SLO
	// engine + /cluster).
	fx := school.New()
	regs := make(map[object.SiteID]*metrics.Registry)
	coordReg := metrics.New()
	coordTracer := &trace.Tracer{}
	rec := obs.NewRecorder(obs.RecorderConfig{Site: "G", Metrics: coordReg})
	coord := &remote.Coordinator{Tracer: coordTracer, Metrics: coordReg, Recorder: rec}
	cluster, err := remote.StartCluster(remote.ClusterConfig{
		Federation: &fedfile.Federation{Global: fx.Global, Databases: fx.Databases, Tables: fx.Mapping},
		Configure: func(site object.SiteID, cfg *remote.ServerConfig) {
			regs[site] = metrics.New()
			cfg.DB, cfg.Tracer, cfg.Metrics = school.New().Databases[site], &trace.Tracer{}, regs[site]
		},
		Coordinator: coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	siteIDs := school.Sites
	obsSrvs := make(map[object.SiteID]*obs.Server, len(siteIDs))
	for _, sid := range siteIDs {
		obsSrvs[sid] = serveObs(t, sid, regs[sid], "127.0.0.1:0")
	}
	defer func() {
		for _, o := range obsSrvs {
			o.Close()
		}
	}()

	targets := []agg.Target{{
		Site:         "G",
		Local:        coordReg.Snapshot,
		LocalQueries: rec.Profiles,
	}}
	for _, sid := range siteIDs {
		targets = append(targets, agg.Target{Site: string(sid), URL: "http://" + obsSrvs[sid].Addr()})
	}
	scr, err := agg.New(agg.Config{Targets: targets, Interval: scrapeEvery, Metrics: coordReg})
	if err != nil {
		t.Fatal(err)
	}
	scr.SetStaleAfter(staleAfter)
	rules, err := slo.ParseRules("availability >= 0.99; query_latency p99 < 30s over 2s")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := slo.New(slo.Config{Source: scr, Rules: rules, Metrics: coordReg})
	if err != nil {
		t.Fatal(err)
	}
	scr.SetOnScrape(engine.Evaluate)

	mux := obs.NewMux("G", coordReg, coordTracer, time.Now(), rec)
	scr.Register(mux, engine.Handler())
	coordObs, err := obs.ServeHandler("127.0.0.1:0", "G", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer coordObs.Close()
	base := "http://" + coordObs.Addr()
	scr.Start()
	defer scr.Stop()

	// Phase 1: healthy cluster. Traffic flows, every target is scraped,
	// the rollup sees all four sites and both SLOs hold. The burst is
	// deliberately large: the restarted site's fresh counters must stay
	// below these pre-crash values long enough for the scraper to observe
	// the reset in phase 3.
	for i := 0; i < 30; i++ {
		if _, _, err := coord.Query(school.Q1, exec.BL); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	// ... and the scraper must have seen those values before the crash. The
	// burst takes a few milliseconds and every wait below can be satisfied by
	// the scrape round that ran as the scraper started, before the burst; the
	// victim then dies with the scraper holding a snapshot without a single
	// request series, nothing the restarted site reports reads lower than
	// it, and no reset is ever counted (one full-suite run in three).
	const victim = object.SiteID("DB3")
	waitFor(t, "the scraper to see the victim's burst", 5*time.Second, func() bool {
		served := regs[victim].Snapshot().Sum("requests_total")
		return served >= 30 && scr.LastRaw(string(victim)).Sum("requests_total") >= served
	})
	waitFor(t, "all sites live", 5*time.Second, func() bool {
		live, total := scr.Liveness()
		return total == len(siteIDs)+1 && live == total
	})
	waitFor(t, "federation window sees traffic and availability ok", 5*time.Second, func() bool {
		if _, _, err := coord.Query(school.Q1, exec.BL); err != nil {
			t.Fatalf("query: %v", err)
		}
		return scr.Rollup().Fed.Window.Queries > 0 &&
			alertState(engine.Alerts(), "availability") == "ok"
	})

	// The HTTP surface shows the same. Polled, like every read of scraper
	// state that is not sticky: the document is a snapshot of one instant,
	// and the wait above proves only that an earlier instant was healthy.
	var roll agg.Rollup
	waitFor(t, "/cluster showing every site live and the window's queries", 5*time.Second, func() bool {
		getJSON(t, base+"/cluster?format=json", &roll)
		return roll.Fed.SitesTotal == len(siteIDs)+1 && roll.Fed.SitesLive == roll.Fed.SitesTotal &&
			roll.Fed.Window.Queries > 0
	})

	// Phase 2: kill DB3 (server and obs surface). /cluster must mark it
	// stale and the availability SLO must fire — the instant rule flips on
	// the first evaluation that sees the site past its staleness bound.
	preCrash := scr.LastRaw(string(victim))
	obsAddr := obsSrvs[victim].Addr()
	obsSrvs[victim].Close()
	if err := cluster.Kill(victim); err != nil {
		t.Fatal(err)
	}
	killedAt := time.Now()
	waitFor(t, "DB3 stale and availability firing", 5*time.Second, func() bool {
		row := siteRow(scr.Rollup(), string(victim))
		if row == nil || row.Live {
			return false
		}
		return alertState(engine.Alerts(), "availability") == "firing"
	})
	detected := time.Since(killedAt)
	// The site goes stale staleAfter past its last good scrape; one more
	// scrape pass notices. A generous CI bound still proves detection is
	// interval-scale, not minutes-scale.
	if limit := staleAfter + 20*scrapeEvery; detected > limit {
		t.Errorf("staleness detected after %s, want <= %s", detected, limit)
	}
	row := siteRow(scr.Rollup(), string(victim))
	if row.Status != "unreachable" {
		t.Errorf("dead site status = %q, want unreachable", row.Status)
	}
	var alerts []slo.Alert
	getJSON(t, base+"/cluster/alerts?format=json", &alerts)
	if alertState(alerts, "availability") != "firing" {
		t.Errorf("/cluster/alerts does not show availability firing: %+v", alerts)
	}

	// Phase 3: restart DB3 on the same addresses with a fresh (zeroed)
	// registry — the durable-site crash+restart shape. Queries run before
	// the obs surface comes back, so the scraper's first post-restart
	// scrape sees counters smaller than its last pre-crash raw snapshot
	// and must count a reset instead of going negative.
	if err := cluster.Restart(victim); err != nil {
		t.Fatal(err)
	}
	reborn := regs[victim]

	waitFor(t, "restarted DB3 serving queries", 5*time.Second, func() bool {
		// Tolerate failures while the coordinator's pool and breaker
		// re-discover the site; traffic doubles as the breaker probe.
		_, _, _ = coord.Query(school.Q1, exec.BL)
		return reborn.Snapshot().Sum("requests_total") > 0
	})
	obsSrvs[victim] = serveObs(t, victim, reborn, obsAddr)
	defer func() {
		if t.Failed() {
			t.Logf("the restarted site's counters:\n%s\nthe scraper's last snapshot of it before the crash:\n%s\nand now:\n%s",
				reborn.Snapshot().Text(), preCrash.Text(), scr.LastRaw(string(victim)).Text())
		}
	}()

	// No traffic while waiting: the restarted site's counters must stay
	// below their pre-crash values until the scraper reconnects, or the
	// reset would be indistinguishable from ordinary growth. The two halves
	// are waited for one after the other: the reset count is sticky, so it
	// need not coincide with an instant at which all four sites read live.
	waitFor(t, "reset counted", 10*time.Second, func() bool {
		return coordReg.Snapshot().CounterValue("scrape_resets_total",
			metrics.Labels{Site: "G", Peer: string(victim)}) >= 1
	})
	waitFor(t, "availability resolved", 10*time.Second, func() bool {
		live, total := scr.Liveness()
		return live == total && alertState(engine.Alerts(), "availability") == "ok"
	})
	row = siteRow(scr.Rollup(), string(victim))
	if row.Resets < 1 {
		t.Errorf("rollup resets = %d, want >= 1", row.Resets)
	}
	if row.Window.Queries < 0 || row.Window.QPS < 0 {
		t.Errorf("post-restart window went negative: %+v", row.Window)
	}

	// The combined dashboard document round-trips: fetch the three
	// endpoints the way hetops -once -json does, re-marshal, re-parse —
	// identical structures.
	type snapshot struct {
		Cluster agg.Rollup         `json:"cluster"`
		Alerts  []slo.Alert        `json:"alerts"`
		Queries []obs.QuerySummary `json:"queries"`
	}
	var snap snapshot
	getJSON(t, base+"/cluster?format=json", &snap.Cluster)
	getJSON(t, base+"/cluster/alerts?format=json", &snap.Alerts)
	getJSON(t, base+"/cluster/queries?format=json&n=5", &snap.Queries)
	if len(snap.Queries) == 0 {
		t.Errorf("federation slow-query log is empty after %d+ queries", 5)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var again snapshot
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, again) {
		t.Errorf("dashboard document does not round-trip:\n got %+v\nwant %+v", again, snap)
	}

	// Teardown everything and verify the plane leaks no goroutines: the
	// scraper loop, obs servers, site accept loops and pooled connections
	// must all unwind.
	scr.Stop()
	coordObs.Close()
	for _, o := range obsSrvs {
		o.Close()
	}
	cluster.Close()
	settleGoroutines(t, baseline)
}

func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, baseline %d", n, baseline)
}
