package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs/slo"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/workload"
)

// coordinatorID is the global processing site in every benchmark topology
// (the school example's; the workload generator names sites DB1, DB2, …).
const coordinatorID = "G"

// Run executes the matrix and assembles the report. Cells run sequentially
// — each cell owns the whole machine while it is measured, so cells never
// contend with each other. progress, when non-nil, receives one line per
// cell as it completes.
func Run(ctx context.Context, spec MatrixSpec, topic string, progress func(string)) (*Report, error) {
	if err := validate(&spec); err != nil {
		return nil, err
	}
	report := newReport(topic, spec.Seed, spec)
	var cells []CellResult
	// One bundle per workload name, shared by every cell that queries it:
	// comparisons across strategies and faults are over identical data.
	bundles := make(map[string]*Bundle, len(spec.Workloads))
	for _, name := range spec.Workloads {
		b, err := BuildBundle(name, spec.Variants, spec.Scale, spec.Seed)
		if err != nil {
			return nil, err
		}
		bundles[name] = b
	}
	for _, cell := range expand(spec) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := runCell(ctx, spec, cell, bundles[cell.Workload])
		if err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", cell.Key(), err)
		}
		cells = append(cells, res)
		if progress != nil {
			progress(fmt.Sprintf("%-44s p50 %8.0fµs  p99 %8.0fµs  %7.1f q/s  maybe %.2f  degraded %.2f",
				cell.Key(), res.Client.P50Micros, res.Client.P99Micros,
				res.Client.QPS, res.Server.MaybeFrac, res.Server.DegradedFrac))
		}
	}
	// Cell-key order keeps the JSON form diffable.
	sort.Slice(cells, func(i, j int) bool { return cells[i].Cell.Key() < cells[j].Cell.Key() })
	report.Cells = cells
	return report, nil
}

// validate fills the spec's defaults and rejects nonsense before any cell
// spends time.
func validate(spec *MatrixSpec) error {
	if len(spec.Runtimes) == 0 {
		spec.Runtimes = []string{"sim"}
	}
	for _, rt := range spec.Runtimes {
		if rt != "sim" && rt != "live" {
			return fmt.Errorf("bench: unknown runtime %q (want sim or live)", rt)
		}
	}
	if len(spec.Strategies) == 0 {
		return errors.New("bench: no strategies")
	}
	for _, s := range spec.Strategies {
		if _, err := exec.ParseAlgorithm(s); err != nil {
			return err
		}
	}
	if len(spec.Workloads) == 0 {
		return errors.New("bench: no workloads")
	}
	if len(spec.Clients) == 0 {
		spec.Clients = []int{1}
	}
	if len(spec.Faults) == 0 {
		spec.Faults = []string{"none"}
	}
	for _, f := range spec.Faults {
		if _, err := fabric.ParseFaults(f, ""); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	if spec.Queries < 1 {
		spec.Queries = 1
	}
	if spec.Variants < 1 {
		spec.Variants = 1
	}
	return nil
}

// expand produces the cell cross product in canonical (sorted-key) order.
func expand(spec MatrixSpec) []Cell {
	var cells []Cell
	for _, rt := range spec.Runtimes {
		for _, strat := range spec.Strategies {
			for _, wl := range spec.Workloads {
				for _, cl := range spec.Clients {
					for _, fault := range spec.Faults {
						c := Cell{
							Runtime:  rt,
							Strategy: strat,
							Workload: wl,
							Clients:  cl,
							Fault:    fault,
						}
						c.Seed = cellSeed(spec.Seed, c.Key()+seedKeySuffix)
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells
}

// seedKeySuffix is the sixth segment cell keys had while the matrix swept
// serving configurations. Only "plain" is left and the key dropped it, but a
// cell's seed is still derived from the six-segment string, so every
// committed sim baseline reproduces to the digit.
const seedKeySuffix = "/plain"

func runCell(ctx context.Context, spec MatrixSpec, cell Cell, bundle *Bundle) (CellResult, error) {
	switch cell.Runtime {
	case "sim":
		return runSimCell(ctx, spec, cell, bundle)
	case "live":
		return runLiveCell(ctx, spec, cell, bundle)
	default:
		return CellResult{}, fmt.Errorf("unknown runtime %q", cell.Runtime)
	}
}

// runSimCell executes the cell on the discrete-event fabric: queries run
// sequentially (the DES models intra-query parallelism; the clients
// dimension shapes live cells only), latencies are virtual micros, and
// every number derives from the cell seed — identical seeds reproduce
// byte-identical results. The cell's context is checked between queries,
// never handed to one: a wall-clock budget cut into virtual time would couple
// results to host speed.
func runSimCell(ctx context.Context, spec MatrixSpec, cell Cell, bundle *Bundle) (CellResult, error) {
	alg, err := exec.ParseAlgorithm(cell.Strategy)
	if err != nil {
		return CellResult{}, err
	}
	faults, err := fabric.ParseFaults(cell.Fault, "")
	if err != nil {
		return CellResult{}, err
	}
	reg := metrics.New()
	cfg := exec.Config{
		Global:        bundle.Global,
		Coordinator:   coordinatorID,
		Databases:     bundle.Databases,
		Tables:        bundle.Tables,
		Metrics:       reg,
		Signatures:    signature.Build(bundle.Databases),
		MaxConcurrent: spec.MaxConcurrent,
	}
	// Adaptive cells close the feedback loop: a tracer feeds each query's
	// measured profile into the calibrating selector. Queries run
	// sequentially here, so the selection sequence is as deterministic as
	// the DES itself.
	var tracer trace.Tracer
	adaptive := alg == exec.Adaptive
	if adaptive {
		cat := planner.BuildCatalog(bundle.Global, bundle.Databases, bundle.Tables)
		cfg.Tracer = &tracer
		cfg.Selector = planner.NewSelector(cat, coordinatorID, nil)
	}
	engine, err := exec.New(cfg)
	if err != nil {
		return CellResult{}, err
	}
	rng := rand.New(rand.NewSource(cell.Seed))
	variants := DrawVariants(zipfFor(rng, spec, bundle), spec.Queries)

	results := make([]Result, spec.Queries)
	var virtualMicros float64
	for i := 0; i < spec.Queries; i++ {
		if err := ctx.Err(); err != nil {
			return CellResult{}, err
		}
		// Each query gets a fresh fault plan: DropAfter budgets are
		// per-query (mid-query crash), matching the sim package's semantics.
		rt := fabric.NewSim(fabric.DefaultRates(), engine.Sites()).WithFaults(faults())
		ans, m, err := engine.Run(rt, alg, bundle.Bounds[variants[i]])
		if err != nil {
			results[i] = Result{Err: err, Shed: errors.Is(err, exec.ErrShed)}
			continue
		}
		virtualMicros += m.ResponseMicros
		results[i] = Result{
			Micros:      m.ResponseMicros,
			Degraded:    ans.Degraded,
			Interrupted: ans.Interrupted(),
		}
	}
	return CellResult{
		Cell:   cell,
		Client: Summarize(results, virtualMicros),
		Server: extractServerStats(reg.Snapshot(), nil),
	}, nil
}

// zipfFor builds the cell's variant sampler; nil when there is only one
// variant to choose from.
func zipfFor(rng *rand.Rand, spec MatrixSpec, bundle *Bundle) *workload.Zipf {
	if len(bundle.Queries) <= 1 {
		return nil
	}
	return workload.NewZipf(rng, len(bundle.Queries), spec.Zipf)
}

// extractServerStats reduces metric snapshot deltas to the report's server
// truth. coord is the coordinator's delta; sites are the component sites'
// (empty on the sim runtime, where one registry holds everything).
//
// Network bytes need care: the coordinator records coordinator↔site traffic
// in both directions as it sees it, and each site additionally records its
// own outbound bytes — including responses to the coordinator, which the
// coordinator already counted. Site samples whose peer is the coordinator
// are therefore excluded; what remains from the sites is site↔site check
// traffic, which the coordinator never sees.
func extractServerStats(coord metrics.Snapshot, sites []metrics.Snapshot) ServerStats {
	all := append([]metrics.Snapshot{coord}, sites...)
	sumAll := func(name string) int64 {
		var t int64
		for _, s := range all {
			t += s.Sum(name)
		}
		return t
	}
	st := ServerStats{
		Queries:          coord.Sum("queries_total"),
		CertainRows:      coord.Sum("results_certain_total"),
		MaybeRows:        coord.Sum("results_maybe_total"),
		DegradedQueries:  coord.Sum("degraded_queries_total"),
		DiskBytes:        sumAll("disk_bytes_total"),
		CPUOps:           sumAll("cpu_ops_total"),
		ChecksDispatched: sumAll("checks_dispatched_total"),
		Shed:             coord.Sum("queries_shed_total"),
		DeadlineExceeded: coord.Sum("deadline_exceeded_total"),
		Canceled:         coord.Sum("queries_canceled_total"),
		SiteUnavailable:  coord.Sum("site_unavailable_total"),
	}
	st.NetBytes = coord.Sum("net_bytes_total")
	for _, s := range sites {
		st.NetBytes += sumWhere(s, "net_bytes_total", func(l metrics.Labels) bool {
			return l.Peer != coordinatorID
		})
	}
	// The shares are slo.Measures' (the one definition of each), over the
	// coordinator's delta; a cell's run is the window, so no span is needed.
	if maybe, ok := slo.Measures["maybe_rows"].Value(coord, 0, 0); ok {
		st.MaybeFrac, st.CertainFrac = round4(maybe), round4(1-maybe)
	}
	degraded, _ := slo.Measures["degraded_queries"].Value(coord, 0, 0)
	st.DegradedFrac = round4(degraded)
	return st
}

// round4 rounds a share to 4 decimals so report floats stay diffable and
// free of representation noise.
func round4(share float64) float64 {
	return float64(int64(share*1e4+0.5)) / 1e4
}

// sumWhere totals a counter across the label sets keep admits.
func sumWhere(s metrics.Snapshot, name string, keep func(metrics.Labels) bool) int64 {
	var t int64
	for _, smp := range s.Samples {
		if smp.Name == name && smp.Hist == nil && (keep == nil || keep(smp.Labels)) {
			t += smp.Value
		}
	}
	return t
}
