// Package cost defines the cost-event sink through which every layer
// reports the abstract operations of the paper's cost model (Table 1):
// bytes read from disk and CPU operations (comparisons, reference
// navigations, mapping-table lookups). Network transfer costs are charged by
// the fabric per message and do not pass through a Sink.
//
// Implementations either count the events (real executions) or additionally
// block the calling process for the corresponding virtual time (the
// discrete-event fabric).
//
// The package also defines Breakdown, the site × phase cost attribution a
// query profile carries and EXPLAIN ANALYZE prints.
package cost

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Sink receives cost events. Implementations may block the caller to model
// the time the operation takes.
type Sink interface {
	// DiskRead reports bytes read from the local disk.
	DiskRead(bytes int)
	// CPU reports abstract CPU operations (one comparison each).
	CPU(ops int)
}

// Counter is a Sink that tallies events: a processing step's charges, flushed
// to the runtime's sink when the step ends. One goroutine owns it; it is not
// safe for concurrent use (SharedCounter is). The zero value is ready to use.
type Counter struct {
	diskBytes int64
	cpuOps    int64
}

var _ Sink = (*Counter)(nil)

// DiskRead implements Sink.
func (c *Counter) DiskRead(bytes int) { c.diskBytes += int64(bytes) }

// CPU implements Sink.
func (c *Counter) CPU(ops int) { c.cpuOps += int64(ops) }

// DiskBytes returns the accumulated disk bytes.
func (c *Counter) DiskBytes() int64 { return c.diskBytes }

// CPUOps returns the accumulated CPU operations.
func (c *Counter) CPUOps() int64 { return c.cpuOps }

// Reset zeroes the counter.
func (c *Counter) Reset() { *c = Counter{} }

// Flush charges the tallied events to sink — one disk read and one CPU
// charge, so that a discrete-event runtime schedules one resource occupation
// per processing step — and resets the counter.
func (c *Counter) Flush(sink Sink) {
	if c.diskBytes > 0 {
		sink.DiskRead(int(c.diskBytes))
	}
	if c.cpuOps > 0 {
		sink.CPU(int(c.cpuOps))
	}
	c.Reset()
}

// SharedCounter is a Sink that tallies events from any number of goroutines:
// the real runtime's per-site sink, which the concurrent legs of a run flush
// their steps into. The zero value is ready to use.
type SharedCounter struct {
	diskBytes atomic.Int64
	cpuOps    atomic.Int64
}

var _ Sink = (*SharedCounter)(nil)

// DiskRead implements Sink.
func (c *SharedCounter) DiskRead(bytes int) { c.diskBytes.Add(int64(bytes)) }

// CPU implements Sink.
func (c *SharedCounter) CPU(ops int) { c.cpuOps.Add(int64(ops)) }

// DiskBytes returns the accumulated disk bytes.
func (c *SharedCounter) DiskBytes() int64 { return c.diskBytes.Load() }

// CPUOps returns the accumulated CPU operations.
func (c *SharedCounter) CPUOps() int64 { return c.cpuOps.Load() }

// Discard is a Sink that ignores all events.
var Discard Sink = discard{}

type discard struct{}

func (discard) DiskRead(int) {}
func (discard) CPU(int)      {}

// PhaseCost is one row of a Breakdown: the microseconds a site spent in one
// of the paper's phases (O object location, I integration, P predicate
// processing), with the number of contributing spans when known.
type PhaseCost struct {
	Site   string  `json:"site"`
	Phase  string  `json:"phase"`
	Micros float64 `json:"us"`
	Spans  int     `json:"spans,omitempty"`
}

// Breakdown accumulates cost per (site, phase). The zero value is ready to
// use. It is not safe for concurrent use; the profile builder aggregates
// single-threaded at query end.
type Breakdown struct {
	rows map[[2]string]*PhaseCost
}

// Add accumulates micros (and one span) into the site's phase row.
func (b *Breakdown) Add(site, phase string, micros float64) {
	if b.rows == nil {
		b.rows = make(map[[2]string]*PhaseCost)
	}
	k := [2]string{site, phase}
	r, ok := b.rows[k]
	if !ok {
		r = &PhaseCost{Site: site, Phase: phase}
		b.rows[k] = r
	}
	r.Micros += micros
	r.Spans++
}

// Get returns the accumulated micros for a (site, phase) row, 0 when the
// row is absent.
func (b *Breakdown) Get(site, phase string) float64 {
	if b == nil || b.rows == nil {
		return 0
	}
	if r, ok := b.rows[[2]string{site, phase}]; ok {
		return r.Micros
	}
	return 0
}

// Rows returns the breakdown ordered by site then phase (phases in the
// paper's O, I, P order).
func (b *Breakdown) Rows() []PhaseCost {
	if b == nil || b.rows == nil {
		return nil
	}
	out := make([]PhaseCost, 0, len(b.rows))
	for _, r := range b.rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return phaseOrder(out[i].Phase) < phaseOrder(out[j].Phase)
	})
	return out
}

// Total returns the summed micros across all rows.
func (b *Breakdown) Total() float64 {
	if b == nil {
		return 0
	}
	var t float64
	for _, r := range b.rows {
		t += r.Micros
	}
	return t
}

func phaseOrder(p string) int {
	switch p {
	case "O":
		return 0
	case "I":
		return 1
	case "P":
		return 2
	default:
		return 3
	}
}

// Render lays the breakdown out as EXPLAIN ANALYZE's table: one row per
// (site, phase) in Rows order, then the total, in milliseconds.
func (b *Breakdown) Render() string {
	var out strings.Builder
	fmt.Fprintf(&out, "%-8s %-5s %14s\n", "site", "phase", "measured(ms)")
	for _, r := range b.Rows() {
		fmt.Fprintf(&out, "%-8s %-5s %14.3f\n", r.Site, r.Phase, r.Micros/1e3)
	}
	fmt.Fprintf(&out, "%-8s %-5s %14.3f\n", "total", "", b.Total()/1e3)
	return out.String()
}
