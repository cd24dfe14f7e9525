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
// Identical seeds reproduce byte-identical cell results, so a run's gate is
// that it reproduces the committed report. Everything here runs on the
// simulator: wall-clock speed over TCP and the WAL's write and recovery cost
// are the benchmark/ module's to measure, and the live chaos suite is a test
// (internal/antientropy).
//
// A run emits a schema-versioned, diffable BENCH_<topic>.json, and
// Reproduces holds it to the committed one: every key but "version", exactly.
package bench

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"

	"github.com/hetfed/hetfed/internal/version"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump on breaking
// changes; a run reproduces no report of another schema.
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

// Key renders the cell's identity, as progress lines and errors name it.
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
// and []FigureCell for the figures. The JSON form is stable and diffable.
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

// Reproduces reports whether committed, a committed BENCH_<topic>.json,
// records exactly what this run measured: every envelope key but "version"
// (a checkout stamps its revision there), compared untyped as JSON values
// with numbers as written, so whitespace and key order do not count. The
// error names the first key that differs, for "cells" the first cell.
func (r *Report) Reproduces(committed []byte) error {
	want, err := untyped(committed)
	if err != nil {
		return fmt.Errorf("not a report: %w", err)
	}
	data, err := r.JSON()
	if err != nil {
		return err
	}
	got, err := untyped(data)
	if err != nil {
		return err
	}
	delete(got, "version")
	delete(want, "version")
	for _, key := range []string{"schema", "topic", "seed", "spec", "cells"} { // as JSON writes them
		g, w := got[key], want[key]
		if key == "cells" {
			g, w, key = firstCell(g, w)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("%s:\n  run       %s\n  committed %s", key, render(g), render(w))
		}
		delete(got, key)
		delete(want, key)
	}
	if len(got)+len(want) > 0 {
		return fmt.Errorf("other keys:\n  run       %s\n  committed %s", render(got), render(want))
	}
	return nil
}

// untyped decodes a JSON object, keeping each number as written.
func untyped(data []byte) (m map[string]any, err error) {
	if !json.Valid(data) {
		return nil, errors.New("invalid JSON")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	err = dec.Decode(&m)
	return m, err
}

// firstCell returns the first cell two cell lists differ at, named by its
// key for a matrix and by figure/x/strategy for figures, or, where no cell
// does (one side is not a list), both values, named "cells".
func firstCell(got, want any) (g, w any, name string) {
	gs, _ := got.([]any)
	ws, _ := want.([]any)
	n := max(len(gs), len(ws))
	gs, ws = append(gs, make([]any, n-len(gs))...), append(ws, make([]any, n-len(ws))...) // a missing cell is nil
	for i := range n {
		if g, w = gs[i], ws[i]; reflect.DeepEqual(g, w) {
			continue
		}
		c, _ := cmp.Or(w, g).(map[string]any) // the committed cell, or the run's past the committed list
		if id, ok := c["cell"].(map[string]any); ok {
			return g, w, fmt.Sprintf("cell %v/%v/%v", id["strategy"], id["workload"], id["fault"])
		}
		return g, w, fmt.Sprintf("cell %v/%v/%v", c["figure"], c["x"], c["strategy"])
	}
	return got, want, "cells"
}

// render is a JSON value on one line, for an error message.
func render(v any) string {
	data, _ := json.Marshal(v)
	return string(data)
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
