// Package trace records what a query execution did and where: hierarchical,
// query-scoped spans (which site ran which algorithm step of which phase,
// for how long), held by a Tracer while the work runs and handed off into
// the query's Profile when it ends, which renders them as a tree or as the
// flat per-site step flow of the paper's Figure 8.
//
// The span model maps onto the paper's three processing phases:
//
//   - O — object location: finding the objects a predicate needs (retrieve
//     and ship under CA, assistant lookup and checking under BL/PL).
//   - I — integration: outerjoin materialization under CA, certification of
//     maybe results under BL/PL.
//   - P — predicate processing: evaluating the (local) predicates.
//
// A span's times are on one clock, in microseconds: virtual time for a step
// run under the DES, Now (the wall clock since a fixed epoch, so every
// process stamps on one scale) everywhere else. The same renderers so serve
// live clusters and simulation studies.
package trace

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetfed/hetfed/internal/object"
)

// SpanID identifies a span within (at least) one tracer. ID 0 means "no
// span" and is used as the parent of root spans.
type SpanID uint64

// spanIDs allocates span IDs for every tracer in the process from one
// counter, offset by a random per-process base. Span IDs travel across the
// wire (a served request's span is parented on the caller's span ID, which
// lives in a different tracer, possibly in a different process); a shared
// counter plus a random base keeps a propagated foreign ID from colliding
// with a locally assigned one, which would nest unrelated spans — or parent
// a span on itself — in the rendered tree.
var spanIDs atomic.Uint64

func init() {
	spanIDs.Store(rand.Uint64() >> 2) // headroom so the counter never wraps to 0
}

// epoch is the span clock's zero on the wall: a fixed recent instant, so a
// microsecond count since it keeps a float64 resolution near 0.01 µs (since
// 1970 it would round to 0.25 µs).
var epoch = time.Date(2025, time.January, 1, 0, 0, 0, 0, time.UTC)

// Now reads the span clock outside the DES: wall-clock microseconds since
// epoch. It carries no monotonic reading, so spans stamped by different
// processes line up as far as their machines' clocks agree.
func Now() float64 { return since(time.Now()) }

func since(t time.Time) float64 { return float64(t.Sub(epoch).Nanoseconds()) / 1e3 }

// Span is one recorded unit of work: an algorithm step executed at a site
// on behalf of a query, with its position in the span tree, its phase tags,
// its timing, and any attached counters.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Query scopes the span to one query execution; spans of the same query
	// share the value even across processes (it travels in remote requests).
	Query string
	// Algorithm is the executing strategy's name (CA, BL, PL, SBL, SPL).
	Algorithm string
	Site      object.SiteID
	// Name is the step name, e.g. "BL_C1+C2" or "serve:check".
	Name string
	// Phases tags the span with the paper's phases it performs, in order:
	// a subset of the letters O, I and P ("PO" = phase P then phase O).
	// Empty for control steps.
	Phases string
	Detail string
	// Start and End are the span's times on the span clock (see the package
	// comment); End is -1 while the span is open.
	Start float64
	End   float64
	// Counters are named values attached to the span (rows, items, bytes).
	Counters map[string]int64
}

// Open reports whether the span has not ended.
func (s Span) Open() bool { return s.End < 0 }

// DurationMicros is the span's duration, 0 while the span is open.
func (s Span) DurationMicros() float64 {
	if s.Open() {
		return 0
	}
	return s.End - s.Start
}

// PhaseMicros is what a closed, phase-tagged span contributes to each phase
// it performs: its duration, virtual under the DES and wall-clock elsewhere.
// A multi-phase span ("PO") contributes it in full to each letter — the
// phases are not separable at the site. ok is false for control steps and
// open spans.
func (s Span) PhaseMicros() (d float64, ok bool) {
	if s.Phases == "" || s.Open() {
		return 0, false
	}
	return s.DurationMicros(), true
}

// Tracer collects the spans of work in flight. It is safe for concurrent use
// (sites execute in parallel). A finished query or served request hands its
// tree off with Take, into the profile that is its one record, so the tracer
// stays as small as what is running. The zero value is ready to use; a nil
// *Tracer is a valid no-op recorder, so call sites need no nil checks.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	index map[SpanID]int
	limit int
}

// SetLimit bounds the number of held spans (0 = unlimited, the default).
// When the limit is exceeded the oldest half of the spans is dropped — a
// guard against trees nobody takes, since Take already keeps a tracer to the
// work in flight.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limit = n
}

// StartSpan opens a span under the given parent (0 for a root span), starting
// Now, and returns a handle to finish it. The handle is safe to use from the
// spawning goroutine or the task that performs the work.
func (t *Tracer) StartSpan(parent SpanID, site object.SiteID, name string) Handle {
	if t == nil {
		return Handle{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limit > 0 && len(t.spans) >= t.limit {
		t.dropOldestLocked()
	}
	id := SpanID(spanIDs.Add(1))
	t.spans = append(t.spans, Span{
		ID:     id,
		Parent: parent,
		Site:   site,
		Name:   name,
		Start:  Now(),
		End:    -1,
	})
	if t.index == nil {
		t.index = make(map[SpanID]int)
	}
	t.index[id] = len(t.spans) - 1
	return Handle{t: t, id: id}
}

// dropOldestLocked evicts the oldest half of the span store.
func (t *Tracer) dropOldestLocked() {
	keep := len(t.spans) / 2
	dropped := t.spans[:len(t.spans)-keep]
	for _, s := range dropped {
		delete(t.index, s.ID)
	}
	rest := make([]Span, keep)
	copy(rest, t.spans[len(t.spans)-keep:])
	t.spans = rest
	for i, s := range t.spans {
		t.index[s.ID] = i
	}
}

// Take removes the span root and every span below it and returns them in
// record order: the one hand-off of a finished query's or request's tree, so
// the tracer holds only work in flight. Descendants are found through parent
// links, not record order — imported spans come off the wire in whatever
// order the peer recorded them. Take on a nil tracer, or of a span the
// tracer does not hold, returns nil.
func (t *Tracer) Take(root SpanID) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.index[root]
	if !ok {
		return nil
	}
	children := make(map[SpanID][]int)
	for i, s := range t.spans {
		if s.Parent != 0 && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	taken := make([]bool, len(t.spans))
	n := 0
	for stack := []int{at}; len(stack) > 0; {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if taken[i] {
			continue // a parent cycle, possible only with colliding wire IDs
		}
		taken[i] = true
		n++
		stack = append(stack, children[t.spans[i].ID]...)
	}
	out := make([]Span, 0, n)
	kept := t.spans[:0]
	for i, s := range t.spans {
		if taken[i] {
			out = append(out, s)
			delete(t.index, s.ID)
			continue
		}
		t.index[s.ID] = len(kept)
		kept = append(kept, s)
	}
	clear(t.spans[len(kept):])
	t.spans = kept
	return out
}

// Import appends spans recorded by another tracer — typically a remote
// site's spans shipped back in an RPC response — keeping their IDs, parents
// and timings so they stitch into this tracer's trees (span IDs are
// process-unique by construction, see spanIDs). A span whose ID is already
// present is skipped: spans are wire input, and a second reply path through
// a peer could deliver the same span twice. The tracer keeps the spans'
// counter maps, which their decoder made for them.
func (t *Tracer) Import(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if s.ID == 0 {
			continue
		}
		if _, dup := t.index[s.ID]; dup {
			continue
		}
		if t.limit > 0 && len(t.spans) >= t.limit {
			t.dropOldestLocked()
		}
		t.spans = append(t.spans, s)
		if t.index == nil {
			t.index = make(map[SpanID]int)
		}
		t.index[s.ID] = len(t.spans) - 1
	}
}

// Handle finishes and annotates an open span. The zero Handle (from a nil
// tracer) ignores every call, so instrumented code needs no guards.
type Handle struct {
	t  *Tracer
	id SpanID
}

// ID returns the span's identifier (0 for the no-op handle), used to parent
// child spans and to propagate span context across the wire.
func (h Handle) ID() SpanID { return h.id }

func (h Handle) mutate(fn func(*Span)) {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	defer h.t.mu.Unlock()
	if i, ok := h.t.index[h.id]; ok {
		fn(&h.t.spans[i])
	}
}

// WithQuery scopes the span to a query execution and its algorithm.
func (h Handle) WithQuery(queryID, algorithm string) Handle {
	h.mutate(func(s *Span) { s.Query = queryID; s.Algorithm = algorithm })
	return h
}

// WithPhases tags the span with the paper's phases it performs ("O", "I",
// "P", or a sequence like "PO").
func (h Handle) WithPhases(phases string) Handle {
	h.mutate(func(s *Span) { s.Phases = phases })
	return h
}

// WithStart restarts the span at the given time: a step's time on its
// runtime's clock (fabric.Proc.Now).
func (h Handle) WithStart(at float64) Handle {
	h.mutate(func(s *Span) { s.Start = at })
	return h
}

// Detailf sets the span's human-readable detail.
func (h Handle) Detailf(format string, args ...any) Handle {
	if h.t == nil {
		return h
	}
	detail := fmt.Sprintf(format, args...)
	h.mutate(func(s *Span) { s.Detail = detail })
	return h
}

// Add attaches (or accumulates into) a named counter on the span.
func (h Handle) Add(name string, n int64) Handle {
	h.mutate(func(s *Span) {
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[name] += n
	})
	return h
}

// End closes the span Now.
func (h Handle) End() { h.EndAt(Now()) }

// EndAt closes the span at the given time: a step's time on its runtime's
// clock (fabric.Proc.Now).
func (h Handle) EndAt(at float64) {
	h.mutate(func(s *Span) { s.End = at })
}

// renderFlow lays a query's steps out per site, one column per site (the
// shape of the paper's Figure 8 executing flows). Steps are numbered per
// site; the bracketed g-number is the step's position in the query's record
// order, which is what orders steps across sites.
func renderFlow(spans []Span) string {
	siteSet := make(map[object.SiteID]bool)
	for _, s := range spans {
		siteSet[s.Site] = true
	}
	sites := make([]object.SiteID, 0, len(siteSet))
	for s := range siteSet {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })

	var b strings.Builder
	for _, site := range sites {
		fmt.Fprintf(&b, "%s:\n", site)
		n := 0
		for g, s := range spans {
			if s.Site != site {
				continue
			}
			n++
			fmt.Fprintf(&b, "  %2d. %-10s %s  [g%d]\n", n, s.Name, s.Detail, g+1)
		}
	}
	return b.String()
}

// renderTree renders a span forest hierarchically: every root span (its
// parent is 0 or is not among the spans) with its descendants indented,
// annotated with site, phases, duration, counters and detail.
func renderTree(spans []Span) string {
	present := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	children := make(map[SpanID][]int)
	var roots []int
	for i, s := range spans {
		if s.Parent != 0 && s.Parent != s.ID && present[s.Parent] {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var b strings.Builder
	visited := make([]bool, len(spans))
	var walk func(i, depth int)
	walk = func(i, depth int) {
		if visited[i] {
			return
		}
		visited[i] = true
		writeSpan(&b, spans[i], depth)
		for _, c := range children[spans[i].ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	// A parent cycle (possible only with corrupt or colliding IDs) must not
	// silently drop spans: render whatever the root walk missed as roots.
	for i := range spans {
		if !visited[i] {
			walk(i, 0)
		}
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s Span, depth int) {
	fmt.Fprintf(b, "%s%s", strings.Repeat("  ", depth), s.Name)
	if s.Phases != "" {
		fmt.Fprintf(b, " [%s]", s.Phases)
	}
	fmt.Fprintf(b, " @%s", s.Site)
	if s.Query != "" && depth == 0 {
		fmt.Fprintf(b, " query=%s", s.Query)
		if s.Algorithm != "" {
			fmt.Fprintf(b, " alg=%s", s.Algorithm)
		}
	}
	if s.Open() {
		b.WriteString(" (open)")
	} else {
		fmt.Fprintf(b, " %.1fµs", s.DurationMicros())
	}
	if len(s.Counters) > 0 {
		names := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, k := range names {
			parts[i] = fmt.Sprintf("%s=%d", k, s.Counters[k])
		}
		fmt.Fprintf(b, " {%s}", strings.Join(parts, " "))
	}
	if s.Detail != "" {
		fmt.Fprintf(b, " — %s", s.Detail)
	}
	b.WriteByte('\n')
}
