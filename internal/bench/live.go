package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/remote"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/workload"
)

// liveCluster is one cell's serving deployment: every component site as a
// real TCP server with its own metrics registry and observability endpoint,
// plus an in-process coordinator. Built per cell and torn down after it, so
// no state (pooled connections, counters) leaks between cells.
type liveCluster struct {
	coord    *remote.Coordinator
	coordReg *metrics.Registry
	cluster  *remote.Cluster
	obsSrvs  []*obs.Server
	scrapes  []string // per-site /metrics URLs, in site order
}

func (lc *liveCluster) close() {
	for _, o := range lc.obsSrvs {
		o.Close()
	}
	lc.cluster.Close()
}

// startLiveCluster deploys the bundle's federation for one cell. The cell's
// fault plan is installed into every server: each server consults the plan
// under its own site ID, so the one shared plan kills/delays exactly the
// site the spec names. Site metrics are served over HTTP (obs.Serve) and
// later scraped — the measurement exercises the real observability surface,
// not an in-process shortcut.
func startLiveCluster(spec MatrixSpec, cell Cell, bundle *Bundle) (*liveCluster, error) {
	faults, err := fabric.ParseFaults(cell.Fault, "")
	if err != nil {
		return nil, err
	}
	plan := faults()
	lc := &liveCluster{coordReg: metrics.New()}
	lc.coord = &remote.Coordinator{
		ID:            coordinatorID,
		Metrics:       lc.coordReg,
		MaxConcurrent: spec.MaxConcurrent,
	}
	// Adaptive cells wire the coordinator's feedback loop: a tracer supplies
	// measured profiles and the calibrating selector consumes them. Its
	// health source is the coordinator's breaker states, which stay empty
	// here: the zero CallConfig the cluster runs with has no breaker.
	if alg, err := exec.ParseAlgorithm(cell.Strategy); err == nil && alg == exec.Adaptive {
		lc.coord.Tracer = &trace.Tracer{}
		cat := planner.BuildCatalog(bundle.Global, bundle.Databases, bundle.Tables)
		lc.coord.Selector = planner.NewSelector(cat, coordinatorID, lc.coord.BreakerStates)
	}
	regs := make(map[object.SiteID]*metrics.Registry, len(bundle.Databases))
	lc.cluster, err = remote.StartCluster(remote.ClusterConfig{
		Federation: &fedfile.Federation{Global: bundle.Global, Databases: bundle.Databases, Tables: bundle.Tables},
		Configure: func(site object.SiteID, cfg *remote.ServerConfig) {
			regs[site] = metrics.New()
			cfg.Metrics, cfg.Faults = regs[site], plan
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
		lc.scrapes = append(lc.scrapes, "http://"+o.Addr()+"/metrics")
	}
	return lc, nil
}

// scrapeAll snapshots every site's /metrics endpoint over HTTP.
func (lc *liveCluster) scrapeAll(ctx context.Context) ([]metrics.Snapshot, error) {
	out := make([]metrics.Snapshot, len(lc.scrapes))
	for i, url := range lc.scrapes {
		s, err := obs.Scrape(ctx, url)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// runLiveCell executes the cell against a freshly spawned TCP cluster.
// Client stats come from the load generator's own clock; server stats come
// from /metrics deltas scraped around the run (pre-scrape to post-scrape),
// so warmup work (the reachability ping) never pollutes the window.
func runLiveCell(ctx context.Context, spec MatrixSpec, cell Cell, bundle *Bundle) (CellResult, error) {
	alg, err := exec.ParseAlgorithm(cell.Strategy)
	if err != nil {
		return CellResult{}, err
	}
	lc, err := startLiveCluster(spec, cell, bundle)
	if err != nil {
		return CellResult{}, err
	}
	defer lc.close()
	// Reachability probe; against a faulted cell some sites are dead by
	// design, so a failed ping only means degraded answers, not a bad cell.
	_ = lc.coord.Ping()

	preSites, err := lc.scrapeAll(ctx)
	if err != nil {
		return CellResult{}, fmt.Errorf("pre-scrape: %w", err)
	}
	preCoord := lc.coordReg.Snapshot()

	client := lc.drive(ctx, spec, cell, bundle, alg)

	postSites, err := lc.scrapeAll(ctx)
	if err != nil {
		return CellResult{}, fmt.Errorf("post-scrape: %w", err)
	}
	siteDeltas := make([]metrics.Snapshot, len(postSites))
	for i := range postSites {
		siteDeltas[i] = postSites[i].Delta(preSites[i])
	}
	coordDelta := lc.coordReg.Delta(preCoord)

	return CellResult{
		Cell:   cell,
		Client: client,
		Server: extractServerStats(coordDelta, siteDeltas),
	}, nil
}

// drive runs the cell's seeded query stream against the cluster — closed
// loop, or open loop when the spec sets a rate — and summarizes what the
// load generator observed on its own clock.
func (lc *liveCluster) drive(ctx context.Context, spec MatrixSpec, cell Cell, bundle *Bundle, alg exec.Algorithm) ClientStats {
	rng := rand.New(rand.NewSource(cell.Seed))
	variants := DrawVariants(zipfFor(rng, spec, bundle), spec.Queries)
	fn := func(ctx context.Context, variant int) Result {
		ans, elapsed, err := lc.coord.QueryContext(ctx, bundle.Queries[variant], alg)
		if err != nil {
			return Result{Err: err, Shed: errors.Is(err, exec.ErrShed)}
		}
		return Result{
			Micros:      float64(elapsed.Nanoseconds()) / 1e3,
			Degraded:    ans.Degraded,
			Interrupted: ans.Interrupted(),
		}
	}
	start := time.Now()
	var results []Result
	if spec.RateQPS > 0 {
		offsets := workload.Arrivals(rng, spec.Queries, spec.RateQPS*float64(cell.Clients))
		results = RunOpen(ctx, offsets, variants, fn)
	} else {
		results = RunClosed(ctx, cell.Clients, variants, fn)
	}
	return Summarize(results, float64(time.Since(start).Nanoseconds())/1e3)
}
