// Profile: the per-query cost record assembled at query end from the span
// tree. Where a Span answers "what did this step do", a Profile answers the
// paper's question for one whole query — how much time each site spent in
// each of the O/I/P phases, what travelled where, and whether the answer
// degraded — in a form a flight recorder can retain and an EXPLAIN ANALYZE
// table can lay against the planner's prediction.
package trace

import (
	"context"
	"errors"
	"sort"
	"time"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/object"
)

// Profile statuses.
const (
	StatusOK       = "ok"
	StatusDegraded = "degraded"
	StatusError    = "error"
	// StatusCanceled and StatusDeadline mark queries cut short mid-flight:
	// the caller went away, or the per-query deadline expired. Both always
	// survive flight-recorder eviction — an interrupted query is precisely
	// the kind worth a post-mortem.
	StatusCanceled = "canceled"
	StatusDeadline = "deadline"
)

// Profile is one query execution's cost record.
type Profile struct {
	// ID is the query ID the spans share (q<N> in-process, rq<N>-<tag> over
	// the wire).
	ID string `json:"id"`
	// Alg is the executing strategy's name.
	Alg string `json:"alg"`
	// Start is the wall-clock start (the root span's).
	Start time.Time `json:"start"`
	// WallMicros is the end-to-end latency observed by the recording
	// process.
	WallMicros float64 `json:"wall_us"`
	// VMicros is the latency on the fabric runtime's clock (virtual time
	// under the DES), -1 when no runtime clock was attached.
	VMicros float64 `json:"v_us"`
	// Status is ok, degraded, or error.
	Status string `json:"status"`
	// Error holds the failure when Status is error.
	Error string `json:"error,omitempty"`
	// Certain and Maybe count the answer's rows.
	Certain int `json:"certain"`
	Maybe   int `json:"maybe"`
	// Unavailable lists the sites that could not serve the query.
	Unavailable []string `json:"unavailable,omitempty"`
	// Sites are the sites the query's spans touched, sorted.
	Sites []object.SiteID `json:"sites"`
	// Phases is the measured site × phase time attribution, one
	// Span.PhaseMicros observation per phase letter — as phase_time_us.
	Phases *cost.Breakdown `json:"phases"`
	// Counters aggregates the spans' named counters (rows, items,
	// bytes_shipped, sent/recv_bytes, …) plus recorder-added per-query
	// values (rpcs, admission_wait_us, fabric byte totals).
	Counters map[string]int64 `json:"counters,omitempty"`
	// IO attributes the query's measured event counts to the site that
	// performed them — the denominators the adaptive calibrator divides the
	// measured phase times by to observe each site's effective rates. Filled
	// from the runtime's per-site metrics in process, or from the disk_bytes/
	// cpu_ops counters the serving sites stamp on their spans over the wire.
	IO map[string]SiteIO `json:"io,omitempty"`
	// Spans is the query's span tree in record order (every process's spans
	// the recorder saw, imported remote spans included) — the one record of
	// a finished query's spans.
	Spans []Span `json:"-"`
}

// SiteIO is one site's measured event counts within a query: the cost-model
// denominators (disk bytes read, CPU comparisons, net bytes shipped) whose
// measured-time-over-modeled-time ratio calibrates the site's rates.
type SiteIO struct {
	DiskBytes int64 `json:"disk_bytes,omitempty"`
	CPUOps    int64 `json:"cpu_ops,omitempty"`
	NetBytes  int64 `json:"net_bytes,omitempty"`
}

// AddIO accumulates measured event counts under a site (nil-safe).
func (p *Profile) AddIO(site string, io SiteIO) {
	if p == nil || (io.DiskBytes == 0 && io.CPUOps == 0 && io.NetBytes == 0) {
		return
	}
	if p.IO == nil {
		p.IO = make(map[string]SiteIO)
	}
	cur := p.IO[site]
	cur.DiskBytes += io.DiskBytes
	cur.CPUOps += io.CPUOps
	cur.NetBytes += io.NetBytes
	p.IO[site] = cur
}

// BuildProfile assembles a profile from one query's spans (as handed off by
// Tracer.Take). Status, answer counts and counter extras are the
// caller's to fill in; the builder derives timing, sites, phase attribution
// and span-counter aggregates. Returns nil when no spans are given.
func BuildProfile(qid, alg string, spans []Span) *Profile {
	if len(spans) == 0 {
		return nil
	}
	p := &Profile{
		ID:      qid,
		Alg:     alg,
		Status:  StatusOK,
		VMicros: -1,
		Phases:  &cost.Breakdown{},
		Spans:   spans,
	}
	present := make(map[SpanID]bool, len(spans))
	siteSet := make(map[object.SiteID]bool)
	for _, s := range spans {
		present[s.ID] = true
		siteSet[s.Site] = true
	}
	for _, s := range spans {
		for k, v := range s.Counters {
			if p.Counters == nil {
				p.Counters = make(map[string]int64)
			}
			p.Counters[k] += v
		}
		// Spans stamped with measured event counts (the serving sites' spans
		// over the wire) feed the per-site IO attribution.
		p.AddIO(string(s.Site), SiteIO{
			DiskBytes: s.Counters["disk_bytes"],
			CPUOps:    s.Counters["cpu_ops"],
		})
		if d, ok := s.PhaseMicros(); ok {
			for _, ph := range s.Phases {
				p.Phases.Add(string(s.Site), string(ph), d)
			}
		}
		// The root span (its parent was recorded elsewhere or is 0) carries
		// the query's end-to-end timing.
		if s.Parent == 0 || !present[s.Parent] {
			if p.Start.IsZero() || s.Start.Before(p.Start) {
				p.Start = s.Start
				p.WallMicros = s.DurationMicros()
				p.VMicros = s.VDurationMicros()
			}
		}
	}
	for site := range siteSet {
		p.Sites = append(p.Sites, site)
	}
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i] < p.Sites[j] })
	return p
}

// AddCounter accumulates a named per-query value (nil-safe).
func (p *Profile) AddCounter(name string, v int64) {
	if p == nil || v == 0 {
		return
	}
	if p.Counters == nil {
		p.Counters = make(map[string]int64)
	}
	p.Counters[name] += v
}

// SetOutcome records the answer shape: row counts, the unavailable sites,
// and the resulting status (a non-empty err wins over degradation; a
// context error classifies as canceled/deadline rather than error, since
// the interrupted query still produced a sound partial answer).
func (p *Profile) SetOutcome(certain, maybe int, unavailable []string, err error) {
	if p == nil {
		return
	}
	p.Certain, p.Maybe = certain, maybe
	p.Unavailable = unavailable
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		p.Status = StatusDeadline
		p.Error = err.Error()
	case errors.Is(err, context.Canceled):
		p.Status = StatusCanceled
		p.Error = err.Error()
	case err != nil:
		p.Status = StatusError
		p.Error = err.Error()
	case len(unavailable) > 0:
		p.Status = StatusDegraded
	default:
		p.Status = StatusOK
	}
}

// Interesting reports whether the profile must survive flight-recorder
// eviction regardless of age: it describes a degraded or failed query.
// (Slow-percentile retention is the recorder's call — it owns the latency
// distribution.)
func (p *Profile) Interesting() bool {
	return p != nil && p.Status != StatusOK
}

// Render lays the profile's steps out per site: the paper's Figure 8 step
// flow.
func (p *Profile) Render() string {
	if p == nil {
		return ""
	}
	return renderFlow(p.Spans)
}

// RenderTree renders the profile's span tree.
func (p *Profile) RenderTree() string {
	if p == nil {
		return ""
	}
	return renderTree(p.Spans)
}

// chromeEvent is one Chrome trace-event (the JSON Array / traceEvents
// format understood by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeDoc is a profile in Chrome's trace-event form (the traceEvents
// object understood by chrome://tracing and https://ui.perfetto.dev).
type ChromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace exports the profile as a Chrome trace-event document: one
// "process" per site, spans as complete ("X") events, greedily packed onto
// non-overlapping lanes per site.
func (p *Profile) ChromeTrace() ChromeDoc {
	pids := make(map[object.SiteID]int, len(p.Sites))
	for i, site := range p.Sites {
		pids[site] = i + 1
	}

	// Timestamps are microseconds relative to the profile start. Spans from
	// other processes share the wall clock (close enough for a debug
	// surface); an unfinished span gets a minimal visible duration.
	base := p.Start
	events := make([]chromeEvent, 0, len(p.Spans)+len(p.Sites))
	for site, pid := range pids {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": string(site)},
		})
	}

	// Greedy lane assignment per site so overlapping spans (parallel forks
	// at one site) never share a track.
	type lane struct{ end float64 }
	lanes := make(map[object.SiteID][]lane)
	spans := append([]Span(nil), p.Spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for _, s := range spans {
		ts := float64(s.Start.Sub(base).Nanoseconds()) / 1e3
		dur := s.DurationMicros()
		if dur <= 0 {
			dur = 1
		}
		tid := -1
		for i := range lanes[s.Site] {
			if lanes[s.Site][i].end <= ts {
				lanes[s.Site][i].end = ts + dur
				tid = i
				break
			}
		}
		if tid < 0 {
			lanes[s.Site] = append(lanes[s.Site], lane{end: ts + dur})
			tid = len(lanes[s.Site]) - 1
		}
		args := map[string]any{"query": s.Query, "span": uint64(s.ID)}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		for k, v := range s.Counters {
			args[k] = v
		}
		cat := "step"
		if s.Phases != "" {
			cat = s.Phases
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: ts, Dur: dur, Pid: pids[s.Site], Tid: tid, Args: args,
		})
	}
	return ChromeDoc{events, "ms"}
}
