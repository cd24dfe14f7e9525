// Package exec implements the paper's three query execution strategies for
// global queries involving missing data:
//
//   - CA, the centralized approach (phase order O → I → P): every involved
//     site ships its projected local root and branch class objects to the
//     global processing site, which materializes the global classes by
//     outerjoin over GOids and evaluates the predicates centrally.
//   - BL, the basic localized approach (P → O → I): each site evaluates its
//     local predicates first, then looks up and dispatches assistant-object
//     checks for the surviving maybe results; the coordinator certifies.
//   - PL, the parallel localized approach (O → P → I): each site dispatches
//     assistant-object checks for every object holding missing data first,
//     then evaluates its local predicates while the checks proceed in
//     parallel at the other sites.
//
// All three return the same answers (certain results plus maybe results) —
// the localized strategies trade extra coordination for inter-site
// parallelism, not for answer quality.
//
// Each strategy exists exactly once, as the paper's Figure 8 step flow:
// Runner holds the global site's half (CA_G1…G3, BL/PL_G1·G2) and the query
// lifecycle around it, SiteFlow the component site's half (CA_C1,
// BL/PL_C1·C2 and the C3 checks they trigger). Both are written against
// package fabric — so one implementation serves real executions and the
// discrete-event timing simulation — and against the site-operations seam
// (SiteOps, SiteLink), which hides how a step reaches another site: in this
// address space over the fabric (inproc.go), or over TCP (package remote).
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/trace"
)

// Algorithm identifies an execution strategy.
type Algorithm int

// The execution strategies. SBL and SPL are the signature-assisted
// variants of BL and PL (the paper's Section 5 extension); they require
// Config.Signatures.
const (
	CA  Algorithm = iota + 1 // centralized approach
	BL                       // basic localized approach
	PL                       // parallel localized approach
	SBL                      // signature-assisted basic localized
	SPL                      // signature-assisted parallel localized
)

// String returns the paper's abbreviation for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case CA:
		return "CA"
	case BL:
		return "BL"
	case PL:
		return "PL"
	case SBL:
		return "SBL"
	case SPL:
		return "SPL"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists the paper's strategies in paper order.
func Algorithms() []Algorithm { return []Algorithm{CA, BL, PL} }

// AllAlgorithms additionally includes the signature-assisted variants.
func AllAlgorithms() []Algorithm { return []Algorithm{CA, BL, PL, SBL, SPL} }

// ParseAlgorithm resolves a strategy name (case-insensitive) — the one parser
// every CLI and the benchmark runner share.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range AllAlgorithms() {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("exec: unknown algorithm %q (want CA, BL, PL, SBL or SPL)", name)
}

// Engine executes global queries against a federation held in this address
// space: a Runner whose site operations are the in-process seam.
type Engine struct {
	run  Runner
	ops  *inproc
	qseq atomic.Uint64
}

// Config assembles an engine.
type Config struct {
	// Global is the integrated global schema.
	Global *schema.Global
	// Coordinator names the global processing site.
	Coordinator object.SiteID
	// Databases are the component databases, keyed by site.
	Databases map[object.SiteID]*store.Database
	// Tables are the GOid mapping tables; each site works against this
	// replica (the tables are read-only during query processing).
	Tables *gmap.Tables
	// Tracer, when non-nil, records the executed steps (Figure 8 flows) as
	// query-scoped spans carrying phase tags and runtime timings.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives per-query counters and histograms:
	// latency, per-phase span times, per-site disk/CPU work, per-site-pair
	// network bytes, and certification outcomes.
	Metrics *metrics.Registry
	// Signatures, when non-nil, is the replicated object-signature index
	// required by the SBL and SPL strategies.
	Signatures *signature.Index
	// Recorder, when non-nil, receives a per-query trace.Profile at the end
	// of every Run — the flight recorder behind /debug/queries. Requires
	// Tracer (profiles are assembled from the query's spans).
	Recorder *obs.Recorder
}

// New builds an engine from a federation configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.Global == nil {
		return nil, fmt.Errorf("exec: nil global schema")
	}
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("exec: empty coordinator site")
	}
	if _, clash := cfg.Databases[cfg.Coordinator]; clash {
		return nil, fmt.Errorf("exec: coordinator %s clashes with a component site", cfg.Coordinator)
	}
	ops := &inproc{
		coord: cfg.Coordinator,
		sites: make(map[object.SiteID]*federation.Site, len(cfg.Databases)),
		sigs:  cfg.Signatures,
		reg:   cfg.Metrics,
	}
	for id, db := range cfg.Databases {
		if db.Site() != id {
			return nil, fmt.Errorf("exec: database registered under %s reports site %s", id, db.Site())
		}
		ops.sites[id] = federation.NewSite(db, cfg.Global, cfg.Tables)
	}
	return &Engine{ops: ops, run: Runner{
		Coord:    federation.NewCoordinator(cfg.Coordinator, cfg.Global, cfg.Tables),
		Ops:      ops,
		State:    noLock{},
		Tracer:   cfg.Tracer,
		Metrics:  cfg.Metrics,
		Recorder: cfg.Recorder,
	}}, nil
}

// Sites returns every site identifier including the coordinator, sorted —
// the site set a simulated runtime must register.
func (e *Engine) Sites() []object.SiteID {
	out := make([]object.SiteID, 0, len(e.ops.sites)+1)
	for id := range e.ops.sites {
		out = append(out, id)
	}
	out = append(out, e.ops.coord)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Coordinator returns the global processing site's identifier.
func (e *Engine) Coordinator() object.SiteID { return e.ops.coord }

// Run executes the query under the given strategy on the given runtime and
// returns the answer with the runtime's metrics. Each run gets a fresh
// query ID scoping its span tree and metric samples. Equivalent to
// RunContext with context.Background().
func (e *Engine) Run(rt fabric.Runtime, alg Algorithm, b *query.Bound) (*federation.Answer, fabric.Metrics, error) {
	return e.RunContext(context.Background(), rt, alg, b)
}

// RunContext is Run under a caller context; see Runner.Run for how
// cancellation and deadlines behave.
func (e *Engine) RunContext(ctx context.Context, rt fabric.Runtime, alg Algorithm, b *query.Bound) (*federation.Answer, fabric.Metrics, error) {
	return e.run.Run(ctx, rt, fmt.Sprintf("q%d", e.qseq.Add(1)), alg, b)
}
