package bench

import (
	"context"
	"fmt"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/obs/agg"
	"github.com/hetfed/hetfed/internal/obs/slo"
	"github.com/hetfed/hetfed/internal/remote"
)

// ObsSpec shapes an observability-overhead run: the same live school
// workload measured twice — once bare, once with the full cluster
// observability plane (scraper polling every site's /metrics + /healthz
// over HTTP, SLO engine evaluating on every pass) running against the
// serving processes. The pair quantifies what /cluster costs the queries
// it observes.
type ObsSpec struct {
	// Queries driven per cell (identical for both modes).
	Queries int `json:"queries"`
	// Clients is the closed-loop worker count.
	Clients int `json:"clients"`
	// Rounds is how many times each mode runs. The modes are interleaved
	// within each round (alternating which goes first, so neither mode
	// systematically collects warmup or frequency-scaling drift) and the
	// gate judges the best same-round wall-clock ratio: pairing cancels
	// machine drift between rounds, and taking the minimum makes the gate
	// robust to one-sided load spikes — a real regression in the plane
	// slows every round, a transient spike only one.
	Rounds int `json:"rounds,omitempty"`
	// Seed roots the load generator, so both modes drive the identical
	// query sequence.
	Seed int64 `json:"seed"`
	// ScrapeInterval is the scraped mode's polling cadence (the obs topic's
	// 100ms is deliberately 20× more aggressive than the production 2s
	// default, so the measured overhead upper-bounds the real deployment's).
	ScrapeInterval time.Duration `json:"scrape_interval,omitempty"`
	// MaxOverhead, when positive, gates the run: it fails if the scraped
	// mode's wall clock exceeds MaxOverhead × the baseline's.
	MaxOverhead float64 `json:"max_overhead,omitempty"`
}

// ObsCell is one mode's measured run.
type ObsCell struct {
	// Mode is "baseline" (no observability plane) or "scraped" (scraper +
	// SLO engine polling the cluster while it serves).
	Mode   string      `json:"mode"`
	Client ClientStats `json:"client"`
	// Overhead is the best same-round ratio of this cell's wall clock over
	// the baseline's (1.0 for the baseline itself) — the price of being
	// watched, with cross-round machine drift paired away.
	Overhead float64 `json:"overhead"`

	// Scraper-side truth, scraped mode only: completed scrape passes per
	// target, failures, and the federation rollup's final liveness.
	Scrapes        int64 `json:"scrapes,omitempty"`
	ScrapeFailures int64 `json:"scrape_failures,omitempty"`
	SitesLive      int   `json:"sites_live,omitempty"`
	SitesTotal     int   `json:"sites_total,omitempty"`
}

// obsModes are the two cells of every observability run.
var obsModes = []string{"baseline", "scraped"}

// RunObs measures the observability plane's cost: the identical live BL
// school workload with and without the scraper + SLO engine watching the
// cluster. Rounds are interleaved across modes (a transient load spike
// lands on both, not one mode's only sample) and the report keeps each
// mode's best round. The scraped cell verifies its own wiring — every
// scrape target must end the run live, and at least one full scrape pass
// must have completed — and the relative overhead is gated by
// spec.MaxOverhead, so the run doubles as a regression gate. progress,
// when non-nil, receives one line per cell.
func RunObs(ctx context.Context, spec ObsSpec, progress func(string)) (*Report, error) {
	report := newReport("obs", spec.Seed, spec)

	// One-variant school bundle: both modes drive the same Q1 stream, so
	// the delta between the cells is the observability plane alone.
	bundle, err := BuildBundle("school", 1, 1, spec.Seed)
	if err != nil {
		return nil, err
	}

	best := make(map[string]ObsCell, len(obsModes))
	bestRatio := 0.0
	for round := 0; round < spec.Rounds; round++ {
		order := obsModes
		if round%2 == 1 {
			order = []string{obsModes[1], obsModes[0]}
		}
		roundWall := make(map[string]float64, len(obsModes))
		for _, mode := range order {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c, err := runObsCell(ctx, spec, bundle, mode)
			if err != nil {
				return nil, fmt.Errorf("bench: obs %s round %d: %w", mode, round, err)
			}
			roundWall[mode] = c.Client.WallMillis
			if prev, seen := best[mode]; !seen || c.Client.WallMillis < prev.Client.WallMillis {
				best[mode] = c
			}
		}
		if roundWall["baseline"] > 0 {
			ratio := roundWall["scraped"] / roundWall["baseline"]
			if round == 0 || ratio < bestRatio {
				bestRatio = ratio
			}
		}
	}

	out := make([]ObsCell, 0, len(obsModes))
	for _, mode := range obsModes {
		c := best[mode]
		if mode == "baseline" {
			c.Overhead = 1.0
		} else {
			c.Overhead = round2(bestRatio)
		}
		out = append(out, c)
		if progress != nil {
			progress(fmt.Sprintf("%-9s wall %9.2f ms (%7.0f qps, p99 %8.2f us, %.2fx baseline)  scrapes %d (%d failed)",
				c.Mode, c.Client.WallMillis, c.Client.QPS, c.Client.P99Micros,
				c.Overhead, c.Scrapes, c.ScrapeFailures))
		}
	}

	report.Cells = out

	// Invariant: being watched must not meaningfully slow the watched.
	if spec.MaxOverhead > 0 {
		for _, c := range out {
			if c.Mode == "scraped" && c.Overhead > spec.MaxOverhead {
				return report, fmt.Errorf("bench: scrape overhead %.2fx exceeds the %.2fx gate",
					c.Overhead, spec.MaxOverhead)
			}
		}
	}
	return report, nil
}

// runObsCell runs one mode once: a fresh live cluster, optionally with the
// observability plane polling it, driven by the closed-loop generator. The
// returned cell carries everything but its Overhead.
func runObsCell(ctx context.Context, spec ObsSpec, bundle *Bundle, mode string) (ObsCell, error) {
	out := ObsCell{Mode: mode}
	watch := mode == "scraped"
	lc, err := startLiveCluster(bundle)
	if err != nil {
		return out, err
	}
	defer lc.close()
	_ = lc.coord.Ping()

	var scraper *agg.Scraper
	aggReg := metrics.New()
	if watch {
		// The plane under test: the coordinator observing itself in
		// process plus every site over its real HTTP obs surface, with the
		// SLO engine evaluating on each pass — exactly the -cluster-scrape
		// deployment shape.
		targets := []agg.Target{{Site: coordinatorID, Local: lc.coordReg.Snapshot}}
		for i, site := range lc.cluster.Sites() {
			targets = append(targets, agg.Target{Site: string(site), URL: lc.obsURLs[i]})
		}
		scraper, err = agg.New(agg.Config{Targets: targets, Interval: spec.ScrapeInterval, Metrics: aggReg})
		if err != nil {
			return out, err
		}
		rules, err := slo.ParseRules("availability >= 0.99; query_latency p99 < 10s over 1m")
		if err != nil {
			return out, err
		}
		engine, err := slo.New(slo.Config{Source: scraper, Rules: rules, Metrics: aggReg})
		if err != nil {
			return out, err
		}
		scraper.SetOnScrape(engine.Evaluate)
		scraper.Start()
		defer scraper.Stop()
	}

	out.Client = lc.drive(ctx, spec.Clients, spec.Queries, bundle, exec.BL)

	if watch {
		// One final synchronous pass so short rounds still have complete
		// coverage, then verify the plane actually watched the cluster.
		scraper.ScrapeOnce(ctx)
		scraper.Stop()
		roll := scraper.Rollup()
		out.SitesLive, out.SitesTotal = roll.Fed.SitesLive, roll.Fed.SitesTotal
		snap := aggReg.Snapshot()
		out.Scrapes = snap.Sum("scrape_total")
		out.ScrapeFailures = snap.Sum("scrape_failures_total")
		if out.SitesLive != out.SitesTotal {
			return out, fmt.Errorf("scraped cell ended with %d/%d sites live", out.SitesLive, out.SitesTotal)
		}
		if out.Scrapes == 0 {
			return out, fmt.Errorf("scraper completed no passes")
		}
	}
	return out, nil
}

// liveCluster is one obs cell's serving deployment: every component site as
// a real TCP server with its own metrics registry and observability
// endpoint, plus an in-process coordinator. Built per cell and torn down
// after it, so no state (pooled connections, counters) leaks between cells.
type liveCluster struct {
	coord    *remote.Coordinator
	coordReg *metrics.Registry
	cluster  *remote.Cluster
	obsSrvs  []*obs.Server
	obsURLs  []string // per-site observability base URLs, in site order
}

func (lc *liveCluster) close() {
	for _, o := range lc.obsSrvs {
		o.Close()
	}
	lc.cluster.Close()
}

// startLiveCluster deploys the bundle's federation. Site metrics are served
// over HTTP (obs.Serve), so the scraped mode exercises the real
// observability surface, not an in-process shortcut.
func startLiveCluster(bundle *Bundle) (*liveCluster, error) {
	lc := &liveCluster{coordReg: metrics.New()}
	lc.coord = &remote.Coordinator{ID: coordinatorID, Metrics: lc.coordReg}
	regs := make(map[object.SiteID]*metrics.Registry, len(bundle.Databases))
	var err error
	lc.cluster, err = remote.StartCluster(remote.ClusterConfig{
		Federation: &fedfile.Federation{Global: bundle.Global, Databases: bundle.Databases, Tables: bundle.Tables},
		Configure: func(site object.SiteID, cfg *remote.ServerConfig) {
			regs[site] = metrics.New()
			cfg.Metrics = regs[site]
		},
		Coordinator: lc.coord,
	})
	if err != nil {
		return nil, err
	}
	for _, site := range lc.cluster.Sites() {
		o, err := obs.Serve("127.0.0.1:0", string(site), regs[site], nil)
		if err != nil {
			lc.close()
			return nil, fmt.Errorf("obs %s: %w", site, err)
		}
		lc.obsSrvs = append(lc.obsSrvs, o)
		lc.obsURLs = append(lc.obsURLs, "http://"+o.Addr())
	}
	return lc, nil
}

// drive runs queries copies of the bundle's first query through the
// cluster from closed-loop clients and summarizes what it observed on its
// own clock.
func (lc *liveCluster) drive(ctx context.Context, clients, queries int, bundle *Bundle, alg exec.Algorithm) ClientStats {
	fn := func(ctx context.Context) Result {
		ans, elapsed, err := lc.coord.QueryContext(ctx, bundle.Queries[0], alg)
		if err != nil {
			return Result{Err: err}
		}
		return Result{
			Micros:      float64(elapsed.Nanoseconds()) / 1e3,
			Degraded:    ans.Degraded,
			Interrupted: ans.Interrupted(),
		}
	}
	start := time.Now()
	results := RunClosed(ctx, clients, queries, fn)
	return Summarize(results, float64(time.Since(start).Nanoseconds())/1e3)
}
