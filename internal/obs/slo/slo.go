// Package slo defines the federation's derived measures — the one table of
// functions from a windowed metrics delta to a number an operator judges —
// evaluates declarative service-level objectives over them, and runs a
// burn-rate alert state machine per rule.
//
// Rule grammar (one rule; hetserve's -slo and hetbench slo's -rules flags
// take a semicolon-separated list):
//
//	[name:] metric [agg] op value [over window]
//
//	query_latency p99 < 50ms over 1m
//	degraded_queries ratio < 1% over 1m
//	request_errors ratio < 0.5% over 30s
//	slow: query_latency mean < 5ms over 45s
//	maybe_rows <= 20% over 1m
//	throughput >= 2000
//	availability >= 0.99
//
// Metrics are the names of the Measures table: a latency (agg pNN or mean,
// default p99; value a duration), a share (value a percent or fraction), a
// throughput (value a count per second) or availability (sites live over
// sites tracked — instant, no window). A window defaults to, and may not
// exceed, obs.Window: the history the aggregator keeps of each site.
//
// Burn-rate evaluation: each windowed rule is measured twice per pass,
// over its stated long window and over a short window of long/12 (floored
// at 5s) — the multiwindow burn-rate shape from the SRE literature. Both
// windows violating means the error budget is burning now: firing.
// Exactly one violating means the burn is starting or draining: warn.
// Neither: ok. Transitions land in the slog stream (firing at Warn,
// resolution at Info) and in the alerts_* metrics family; /cluster/alerts
// serves the current state.
package slo

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
)

// Measure is one derived measure: how a number an operator judges is read
// off a windowed metrics.Snapshot delta and the span it covers. Rules, the
// cluster rollup and the benchmark reports all divide through Value, so a
// share or a rate has one definition.
type Measure struct {
	// Unit says which of the three forms the measure takes: "us" is read
	// off the merged histogram Hist (a quantile, or the mean), "ratio" is
	// the share the counter Num holds of the summed Of counters, and "rate"
	// is Num per second of span.
	Unit string
	Hist string
	Num  string
	Of   []string
}

// Measures is the table of derived measures, keyed as the rule grammar
// names them. availability has no series: it is judged on Source.Liveness.
var Measures = map[string]Measure{
	"query_latency":      {Unit: "us", Hist: "query_latency_us"},
	"request_latency":    {Unit: "us", Hist: "request_latency_us"},
	"degraded_queries":   {Unit: "ratio", Num: "degraded_queries_total", Of: []string{"queries_total"}},
	"request_errors":     {Unit: "ratio", Num: "request_errors_total", Of: []string{"requests_total"}},
	"maybe_rows":         {Unit: "ratio", Num: "results_maybe_total", Of: []string{"results_certain_total", "results_maybe_total"}},
	"throughput":         {Unit: "rate", Num: "queries_total"},
	"request_throughput": {Unit: "rate", Num: "requests_total"},
	"availability":       {Unit: "ratio"},
}

// Value evaluates the measure over a delta d spanning span. q picks the
// quantile of a latency (0 = the mean) and is ignored otherwise. ok=false
// means there is nothing to judge: no observation, a zero denominator, or
// no span to take a rate over.
func (m Measure) Value(d metrics.Snapshot, span time.Duration, q float64) (v float64, ok bool) {
	switch m.Unit {
	case "us":
		h := d.MergedHist(m.Hist)
		if h == nil || h.Count == 0 {
			return 0, false
		}
		if q == 0 {
			return h.Mean(), true
		}
		return h.Quantile(q), true
	case "rate":
		if span <= 0 {
			return 0, false
		}
		return float64(d.Sum(m.Num)) / span.Seconds(), true
	}
	var den int64
	for _, name := range m.Of {
		den += d.Sum(name)
	}
	if den == 0 {
		return 0, false
	}
	return float64(d.Sum(m.Num)) / float64(den), true
}

// FormatValue renders a measured value with its unit, as alert listings and
// the benchmark's verdicts print it.
func FormatValue(v float64, unit string) string {
	switch unit {
	case "us":
		return fmt.Sprintf("%.2fms", v/1e3)
	case "rate":
		return fmt.Sprintf("%.2f/s", v)
	}
	return fmt.Sprintf("%.2f%%", v*100)
}

// Source supplies the measurements rules are judged against. *agg.Scraper
// implements it.
type Source interface {
	// WindowDelta returns the federation-merged metrics delta over the
	// trailing window and the span it covers; ok=false when no data exists
	// yet.
	WindowDelta(w time.Duration) (d metrics.Snapshot, span time.Duration, ok bool)
	// Liveness returns how many scrape targets are live, out of how many.
	Liveness() (live, total int)
}

// State is an alert's position in the ok → warn → firing machine.
type State int

const (
	StateOK State = iota
	StateWarn
	StateFiring
)

func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StateFiring:
		return "firing"
	default:
		return "ok"
	}
}

// Rule is one parsed SLO rule.
type Rule struct {
	Name      string        // display name; defaults to the rule text
	Raw       string        // the text it was parsed from
	Metric    string        // a key of Measures
	Agg       string        // p50..p99.9 | mean | ratio | rate
	Q         float64       // quantile for pNN aggs
	Op        string        // < <= > >=
	Threshold float64       // µs for latency, fraction for ratios, per second for rates
	Unit      string        // the measure's: "us" | "ratio" | "rate"
	Window    time.Duration // long window; 0 for instant rules
	Instant   bool          // availability: judged on liveness, not a window
}

// ParseRules parses a semicolon-separated rule list, skipping empty
// segments.
func ParseRules(s string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := ParseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("slo: no rules in %q", s)
	}
	return rules, nil
}

// ParseRule parses one rule; see the package comment for the grammar.
func ParseRule(s string) (Rule, error) {
	r := Rule{Raw: strings.TrimSpace(s), Window: obs.Window}
	fields := strings.Fields(r.Raw)
	fail := func(format string, args ...any) (Rule, error) {
		return Rule{}, fmt.Errorf("slo: rule %q: %s", r.Raw, fmt.Sprintf(format, args...))
	}
	if len(fields) > 0 && strings.HasSuffix(fields[0], ":") {
		r.Name = strings.TrimSuffix(fields[0], ":")
		fields = fields[1:]
	}
	if len(fields) < 3 {
		return fail("want `metric [agg] op value [over window]`")
	}
	r.Metric = fields[0]
	fields = fields[1:]
	switch r.Metric { // the two short spellings the grammar has always taken
	case "degraded":
		r.Metric = "degraded_queries"
	case "errors":
		r.Metric = "request_errors"
	}
	m, known := Measures[r.Metric]
	if !known {
		names := make([]string, 0, len(Measures))
		for name := range Measures {
			names = append(names, name)
		}
		sort.Strings(names)
		return fail("unknown metric (want one of %s)", strings.Join(names, ", "))
	}
	r.Unit, r.Agg = m.Unit, m.Unit
	switch {
	case m.Unit == "us":
		r.Agg, r.Q = "p99", 0.99
	case m.Num == "": // availability: no series, judged now on liveness
		r.Instant, r.Window = true, 0
	}
	if !isOp(fields[0]) { // optional agg token before the operator
		agg := fields[0]
		fields = fields[1:]
		switch {
		case agg == r.Agg:
			// the default, stated explicitly
		case m.Unit == "us" && agg == "mean":
			r.Agg, r.Q = agg, 0
		case m.Unit == "us" && strings.HasPrefix(agg, "p"):
			pct, err := strconv.ParseFloat(agg[1:], 64)
			if err != nil || !(pct/100 > 0 && pct < 100) {
				return fail("bad quantile %q (want p50..p99.9)", agg)
			}
			r.Agg, r.Q = agg, pct/100
		default:
			return fail("aggregation %q does not apply to %s", agg, r.Metric)
		}
	}
	if len(fields) < 2 || !isOp(fields[0]) {
		return fail("want a comparison operator (<, <=, >, >=)")
	}
	r.Op = fields[0]
	val := fields[1]
	fields = fields[2:]
	if r.Unit == "us" {
		d, err := time.ParseDuration(val)
		if err != nil || d < time.Microsecond {
			return fail("bad latency threshold %q (want a duration like 50ms)", val)
		}
		r.Threshold = float64(d.Microseconds())
	} else {
		pct := r.Unit == "ratio" && strings.HasSuffix(val, "%")
		if pct {
			val = strings.TrimSuffix(val, "%")
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f >= 0 && f <= math.MaxFloat64) {
			return fail("bad threshold %q (want a number like 0.01, or for a share a percent like 1%%)", val)
		}
		if pct {
			f /= 100
		}
		r.Threshold = f
	}
	switch {
	case len(fields) == 0:
	case len(fields) == 2 && fields[0] == "over":
		if r.Instant {
			return fail("availability is instant; it takes no window")
		}
		w, err := time.ParseDuration(fields[1])
		if err != nil || w <= 0 {
			return fail("bad window %q", fields[1])
		}
		if w > obs.Window {
			return fail("window %v is longer than the %v of history the aggregator keeps", w, obs.Window)
		}
		r.Window = w
	default:
		return fail("trailing tokens %v", fields)
	}
	if r.Name == "" {
		r.Name = r.Raw
	}
	return r, nil
}

func isOp(s string) bool {
	return s == "<" || s == "<=" || s == ">" || s == ">="
}

// Holds reports whether a measured value satisfies the rule's objective.
func (r Rule) Holds(v float64) bool {
	switch r.Op {
	case "<":
		return v < r.Threshold
	case "<=":
		return v <= r.Threshold
	case ">":
		return v > r.Threshold
	default:
		return v >= r.Threshold
	}
}
