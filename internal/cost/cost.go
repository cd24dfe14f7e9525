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
// The package also defines Breakdown, the shared site × phase cost
// attribution shape: the planner emits a predicted Breakdown per strategy
// and a query profile carries the measured one, so EXPLAIN ANALYZE can lay
// the two side by side row for row.
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

// Counter is a Sink that tallies events. It is safe for concurrent use.
// The zero value is ready to use.
type Counter struct {
	diskBytes atomic.Int64
	cpuOps    atomic.Int64
}

var _ Sink = (*Counter)(nil)

// DiskRead implements Sink.
func (c *Counter) DiskRead(bytes int) { c.diskBytes.Add(int64(bytes)) }

// CPU implements Sink.
func (c *Counter) CPU(ops int) { c.cpuOps.Add(int64(ops)) }

// DiskBytes returns the accumulated disk bytes.
func (c *Counter) DiskBytes() int64 { return c.diskBytes.Load() }

// CPUOps returns the accumulated CPU operations.
func (c *Counter) CPUOps() int64 { return c.cpuOps.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() {
	c.diskBytes.Store(0)
	c.cpuOps.Store(0)
}

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
// use. It is not safe for concurrent use; callers aggregate single-threaded
// (the planner at plan time, the profile builder at query end).
type Breakdown struct {
	rows map[[2]string]*PhaseCost
}

// Add accumulates micros (and one span) into the site's phase row.
func (b *Breakdown) Add(site, phase string, micros float64) {
	b.add(site, phase, micros, 1)
}

// AddEstimate accumulates micros into the site's phase row without counting
// a span — predicted rows have no spans behind them.
func (b *Breakdown) AddEstimate(site, phase string, micros float64) {
	b.add(site, phase, micros, 0)
}

func (b *Breakdown) add(site, phase string, micros float64, spans int) {
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
	r.Spans += spans
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

// RenderColumns lays any number of Breakdowns side by side under the given
// column labels ("(ms)" is appended), one row per (site, phase) appearing
// in any of them. The adaptive EXPLAIN uses three columns: the Table 1
// prediction, the calibrated prediction, and the measured profile.
func RenderColumns(labels []string, bds []*Breakdown) string {
	seen := make(map[[2]string]bool)
	var keys [][2]string
	for _, bd := range bds {
		for _, r := range bd.Rows() {
			k := [2]string{r.Site, r.Phase}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return phaseOrder(keys[i][1]) < phaseOrder(keys[j][1])
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-5s", "site", "phase")
	for _, label := range labels {
		fmt.Fprintf(&b, " %14s", label+"(ms)")
	}
	b.WriteByte('\n')
	cell := func(bd *Breakdown, k [2]string) string {
		if bd == nil {
			return "-"
		}
		if _, ok := bd.rows[k]; !ok {
			return "-"
		}
		return fmt.Sprintf("%.3f", bd.Get(k[0], k[1])/1e3)
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "%-8s %-5s", k[0], k[1])
		for _, bd := range bds {
			fmt.Fprintf(&b, " %14s", cell(bd, k))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-8s %-5s", "total", "")
	for _, bd := range bds {
		fmt.Fprintf(&b, " %14.3f", bd.Total()/1e3)
	}
	b.WriteByte('\n')
	return b.String()
}
