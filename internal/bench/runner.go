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
	"github.com/hetfed/hetfed/internal/signature"
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
	// One bundle per workload name, shared by every cell that queries it,
	// and one query stream (cellSeed): comparisons across strategies and
	// faults are over identical data and queries.
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
		res, err := runSimCell(ctx, spec, cell, bundles[cell.Workload])
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
	for _, strat := range spec.Strategies {
		for _, wl := range spec.Workloads {
			for _, fault := range spec.Faults {
				cells = append(cells, Cell{Strategy: strat, Workload: wl, Fault: fault, Seed: cellSeed(spec.Seed, wl)})
			}
		}
	}
	return cells
}

// runSimCell executes the cell on the discrete-event fabric: queries run
// sequentially (the DES models intra-query parallelism), latencies are
// virtual micros, and every number derives from the cell seed — identical
// seeds reproduce byte-identical results. The cell's context is checked
// between queries, never handed to one: a wall-clock budget cut into virtual
// time would couple results to host speed.
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
	engine, err := exec.New(exec.Config{
		Global:      bundle.Global,
		Coordinator: coordinatorID,
		Databases:   bundle.Databases,
		Tables:      bundle.Tables,
		Metrics:     reg,
		Signatures:  signature.Build(bundle.Databases),
	})
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
			results[i] = Result{Err: err}
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
		Server: extractServerStats(reg.Snapshot()),
	}, nil
}

// zipfFor builds the cell's variant sampler; nil when there is only one
// variant to choose from.
func zipfFor(rng *rand.Rand, spec MatrixSpec, bundle *Bundle) *workload.Zipf {
	if len(bundle.Bounds) <= 1 {
		return nil
	}
	return workload.NewZipf(rng, len(bundle.Bounds), spec.Zipf)
}

// extractServerStats reduces the cell's metric snapshot to the report's
// server truth: one registry holds the coordinator's and every site's counts.
func extractServerStats(snap metrics.Snapshot) ServerStats {
	st := ServerStats{
		Queries:          snap.Sum("queries_total"),
		CertainRows:      snap.Sum("results_certain_total"),
		MaybeRows:        snap.Sum("results_maybe_total"),
		DegradedQueries:  snap.Sum("degraded_queries_total"),
		NetBytes:         snap.Sum("net_bytes_total"),
		DiskBytes:        snap.Sum("disk_bytes_total"),
		CPUOps:           snap.Sum("cpu_ops_total"),
		ChecksDispatched: snap.Sum("checks_dispatched_total"),
		DeadlineExceeded: snap.Sum("deadline_exceeded_total"),
		Canceled:         snap.Sum("queries_canceled_total"),
		SiteUnavailable:  snap.Sum("site_unavailable_total"),
	}
	// The maybe share of returned rows and the degraded share of queries; a
	// share with nothing to judge stays zero, its certain complement too.
	if rows := st.CertainRows + st.MaybeRows; rows > 0 {
		maybe := float64(st.MaybeRows) / float64(rows)
		st.MaybeFrac, st.CertainFrac = round4(maybe), round4(1-maybe)
	}
	if st.Queries > 0 {
		st.DegradedFrac = round4(float64(st.DegradedQueries) / float64(st.Queries))
	}
	return st
}

// round4 rounds a share to 4 decimals so report floats stay diffable and
// free of representation noise.
func round4(share float64) float64 {
	return float64(int64(share*1e4+0.5)) / 1e4
}
