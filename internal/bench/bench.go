// Package bench is the repository's scenario-matrix experiment runner: the
// measurement half of the paper's contribution, industrialized. A matrix
// sweeps strategy (CA/BL/PL/SBL/SPL) × workload shape (the school
// example and Table 2 draws) × fault plan, runs the workload's seeded query
// stream (Zipfian query-variant skew) in each cell on the discrete-event
// fabric, and measures each cell from two sides:
//
//   - client-observed: p50/p95/p99/max latency in virtual time, throughput,
//     error counts — what a caller experiences;
//   - server truth: the engine's metric registry — bytes moved, modeled work
//     and the answer-quality fractions (certain vs maybe vs degraded) that
//     distinguish this system's SLOs from plain latency SLOs.
//
// Identical seeds reproduce byte-identical cell results — the
// regression-gate currency. Everything here runs on the simulator: wall-clock
// speed over TCP and the WAL's write and recovery cost are the benchmark/
// module's to measure, and the live chaos suite is a test
// (internal/antientropy).
//
// A run emits a schema-versioned, diffable BENCH_<topic>.json; Check
// compares two reports under a tolerance for regression gating.
package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"github.com/hetfed/hetfed/internal/version"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump on breaking
// changes; Check refuses to compare across schema versions.
const SchemaVersion = 2

// MatrixSpec defines a benchmark matrix: the sweep dimensions and the load
// shape shared by every cell. The cell set is the cross product of
// Strategies × Workloads × Faults.
type MatrixSpec struct {
	// Strategies are execution strategy names: CA, BL, PL, SBL and SPL.
	Strategies []string `json:"strategies"`
	// Workloads name the federations queried: "school" (the paper's
	// running example) and/or "table2" (a seeded draw from the paper's
	// Table 2 ranges).
	Workloads []string `json:"workloads"`
	// Faults are fault-plan specs in fabric.ParseFaults' grammar: "none",
	// "kill:SITE", "drop:SITE:N" (dark after N operations),
	// "delay:SITE:AMOUNT".
	Faults []string `json:"faults"`

	// Queries is the number of queries driven per cell.
	Queries int `json:"queries"`
	// Zipf is the query-variant popularity skew (0 = uniform).
	Zipf float64 `json:"zipf"`
	// Variants is the number of query variants Zipf picks between (≥ 1).
	Variants int `json:"variants"`
	// Scale multiplies the Table 2 extent sizes for the table2 workloads
	// (1.0 = paper scale; keep small for smoke runs). 0 = 1.0.
	Scale float64 `json:"scale,omitempty"`
	// Seed roots every random choice: workload draws and Zipf key
	// sequences. Identical seeds reproduce byte-identical cell results.
	Seed int64 `json:"seed"`
}

// Cell identifies one matrix cell.
type Cell struct {
	Strategy string `json:"strategy"`
	Workload string `json:"workload"`
	Fault    string `json:"fault"`
	// Seed is the seed of the cell's query stream, shared by every cell
	// over the same workload.
	Seed int64 `json:"seed"`
}

// Key renders the cell's identity — the join key for regression checks.
func (c Cell) Key() string {
	return c.Strategy + "/" + c.Workload + "/" + c.Fault
}

// ClientStats is the client-observed side of a cell: what the query driver
// measured. Latencies are microseconds of virtual time.
type ClientStats struct {
	Queries     int     `json:"queries"`
	Completed   int     `json:"completed"`
	Errors      int     `json:"errors"`
	Degraded    int     `json:"degraded"`
	Interrupted int     `json:"interrupted"`
	WallMillis  float64 `json:"wall_ms"`
	QPS         float64 `json:"qps"`
	MeanMicros  float64 `json:"mean_us"`
	P50Micros   float64 `json:"p50_us"`
	P95Micros   float64 `json:"p95_us"`
	P99Micros   float64 `json:"p99_us"`
	MaxMicros   float64 `json:"max_us"`
}

// ServerStats is the server-truth side of a cell, read from the engine's
// metric registry after the cell's queries. Fractions are the answer-quality
// axis: of everything the strategy returned, how much was certain, how
// much merely possible, and how many queries were degraded by failure.
type ServerStats struct {
	Queries          int64   `json:"queries"`
	CertainRows      int64   `json:"certain_rows"`
	MaybeRows        int64   `json:"maybe_rows"`
	CertainFrac      float64 `json:"certain_frac"`
	MaybeFrac        float64 `json:"maybe_frac"`
	DegradedQueries  int64   `json:"degraded_queries"`
	DegradedFrac     float64 `json:"degraded_frac"`
	NetBytes         int64   `json:"net_bytes"`
	DiskBytes        int64   `json:"disk_bytes,omitempty"`
	CPUOps           int64   `json:"cpu_ops,omitempty"`
	ChecksDispatched int64   `json:"checks_dispatched,omitempty"`
	DeadlineExceeded int64   `json:"deadline_exceeded,omitempty"`
	Canceled         int64   `json:"canceled,omitempty"`
	SiteUnavailable  int64   `json:"site_unavailable,omitempty"`
}

// CellResult is one measured cell.
type CellResult struct {
	Cell   Cell        `json:"cell"`
	Client ClientStats `json:"client"`
	Server ServerStats `json:"server"`
}

// Report is the one envelope every benchmark topic writes: provenance in
// the header, and the topic's typed payload in Spec and Cells — MatrixSpec
// and []CellResult (ordered by cell key) for the matrix topics, FigureSpec
// and []FigureCell for the self-gating figures. The JSON form is stable and
// diffable.
type Report struct {
	Schema  int    `json:"schema"`
	Topic   string `json:"topic"`
	Version string `json:"version"`
	Seed    int64  `json:"seed"`
	Spec    any    `json:"spec"`
	Cells   any    `json:"cells"`
}

// newReport stamps the envelope for a run about to be measured.
func newReport(topic string, seed int64, spec any) *Report {
	return &Report{Schema: SchemaVersion, Topic: topic, Version: version.String(), Seed: seed, Spec: spec}
}

// JSON renders the report in its canonical indented form.
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encode %s report: %w", r.Topic, err)
	}
	return append(data, '\n'), nil
}

// WriteFile writes the report to path in canonical form.
func (r *Report) WriteFile(path string) error {
	data, err := r.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return nil
}

// Results returns a matrix report's cells — what Check judges. The
// figures topic's cells have their own shape and yield nil.
func (r *Report) Results() []CellResult {
	cells, _ := r.Cells.([]CellResult)
	return cells
}

// Get returns the result for a cell key.
func (r *Report) Get(key string) (CellResult, bool) {
	for _, c := range r.Results() {
		if c.Cell.Key() == key {
			return c, true
		}
	}
	return CellResult{}, false
}

// ReadReport loads a report written by WriteFile, validates its schema
// version, and types its payload by topic: a registered topic's spec kind
// decides, and anything else is read as a matrix.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read %s: %w", path, err)
	}
	var raw struct {
		Report
		Spec  json.RawMessage `json:"spec"`
		Cells json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	r := &raw.Report
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema %d, this build reads %d",
			path, r.Schema, SchemaVersion)
	}
	topic, _ := LookupTopic(r.Topic)
	if _, figures := topic.Spec.(FigureSpec); figures {
		err = decodePayload[FigureSpec, FigureCell](r, raw.Spec, raw.Cells)
	} else {
		err = decodePayload[MatrixSpec, CellResult](r, raw.Spec, raw.Cells)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return r, nil
}

// decodePayload decodes the envelope's spec and cells into the topic's types.
func decodePayload[S, C any](r *Report, spec, cells json.RawMessage) error {
	var s S
	var c []C
	if err := json.Unmarshal(spec, &s); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := json.Unmarshal(cells, &c); err != nil {
		return fmt.Errorf("cells: %w", err)
	}
	r.Spec, r.Cells = s, c
	return nil
}

// cellSeed derives the seed of a cell's query stream from the matrix seed
// and the cell's workload alone: every strategy and fault plan over one
// workload draws the same variant sequence (common random numbers), so a
// (workload, fault) column compares its strategies over identical queries,
// and a cell's stream is stable when the matrix around it changes.
func cellSeed(base int64, workload string) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return base ^ int64(h.Sum64())
}
