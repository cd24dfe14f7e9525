package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Rule is one objective a matrix cell is held to by hetbench slo, parsed
// from the rule grammar (ParseRules takes a semicolon-separated list):
//
//	[name:] metric [agg] op value
//
//	query_latency p99 < 50ms
//	slow: query_latency mean < 5ms
//	maybe_rows <= 20%
//	degraded_queries ratio < 1%
//	throughput >= 2000
//
// A metric is one of the four a report keeps: the client's query_latency
// (agg p50, p95, p99 or mean, default p99; value a duration), the server's
// maybe_rows and degraded_queries shares (degraded for short; value a percent
// or a fraction) and the client's throughput (value queries per second). A
// cell's whole run is the window, so a rule takes no `over`.
type Rule struct {
	Name      string  // display name; defaults to the rule text
	Raw       string  // the text it was parsed from
	Metric    string  // query_latency | maybe_rows | degraded_queries | throughput
	Agg       string  // p50 | p95 | p99 | mean for the latency; ratio or rate otherwise
	Op        string  // < <= > >=
	Threshold float64 // µs for the latency, a fraction for a share, per second for throughput
}

// units names the metrics a report keeps, each with its unit: "us", "ratio"
// or "rate".
var units = map[string]string{
	"query_latency":    "us",
	"maybe_rows":       "ratio",
	"degraded_queries": "ratio",
	"throughput":       "rate",
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
		return nil, fmt.Errorf("bench: no rules in %q", s)
	}
	return rules, nil
}

// ParseRule parses one rule; see Rule for the grammar.
func ParseRule(s string) (Rule, error) {
	r := Rule{Raw: strings.TrimSpace(s)}
	fields := strings.Fields(r.Raw)
	fail := func(format string, args ...any) (Rule, error) {
		return Rule{}, fmt.Errorf("bench: rule %q: %s", r.Raw, fmt.Sprintf(format, args...))
	}
	if len(fields) > 0 && strings.HasSuffix(fields[0], ":") {
		r.Name = strings.TrimSuffix(fields[0], ":")
		fields = fields[1:]
	}
	if len(fields) < 3 {
		return fail("want `metric [agg] op value`")
	}
	r.Metric = fields[0]
	fields = fields[1:]
	if r.Metric == "degraded" {
		r.Metric = "degraded_queries"
	}
	unit, known := units[r.Metric]
	if !known {
		return fail("a report keeps degraded_queries, maybe_rows, query_latency and throughput; not %s", r.Metric)
	}
	r.Agg = unit
	if unit == "us" {
		r.Agg = "p99"
	}
	if !isOp(fields[0]) { // optional agg token before the operator
		agg := fields[0]
		fields = fields[1:]
		switch {
		case agg == r.Agg:
			// the default, stated explicitly
		case unit == "us" && (agg == "p50" || agg == "p95" || agg == "mean"):
			r.Agg = agg
		case unit == "us":
			return fail("a report keeps query_latency p50, p95, p99 and mean; not %s", agg)
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
	if unit == "us" {
		d, err := time.ParseDuration(val)
		if err != nil || d < time.Microsecond {
			return fail("bad latency threshold %q (want a duration like 50ms)", val)
		}
		r.Threshold = float64(d.Microseconds())
	} else {
		pct := unit == "ratio" && strings.HasSuffix(val, "%")
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
	case fields[0] == "over":
		return fail("a cell's whole run is the window; a rule takes no `over`")
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

// measure reads the rule's metric off a cell.
func (r Rule) measure(res CellResult) float64 {
	switch r.Metric {
	case "throughput":
		return res.Client.QPS
	case "maybe_rows":
		return res.Server.MaybeFrac
	case "degraded_queries":
		return res.Server.DegradedFrac
	}
	switch r.Agg {
	case "mean":
		return res.Client.MeanMicros
	case "p50":
		return res.Client.P50Micros
	case "p95":
		return res.Client.P95Micros
	}
	return res.Client.P99Micros
}

// formatValue renders a measured value with its unit, as the verdicts print
// it.
func formatValue(v float64, unit string) string {
	switch unit {
	case "us":
		return fmt.Sprintf("%.2fms", v/1e3)
	case "rate":
		return fmt.Sprintf("%.2f/s", v)
	}
	return fmt.Sprintf("%.2f%%", v*100)
}

// Judged is one objective measured on one cell.
type Judged struct {
	Name  string // the rule's name, or "errors"
	Value string // the measurement, with its unit
	OK    bool
	// headroom is the relative distance to the threshold on the side the
	// rule allows: positive = room left, negative = violation depth. It
	// picks the limiting objective.
	headroom float64
}

func (j Judged) String() string {
	verdict := "ok"
	if !j.OK {
		verdict = "VIOLATED"
	}
	return fmt.Sprintf("%-40s %12s  %s", j.Name, j.Value, verdict)
}

// Verdict is the pass/fail answer for one cell. The limiting objective is
// the violated one deepest in violation, or — when everything passes — the
// one with the least headroom (what would give way first if load or failure
// got worse).
type Verdict struct {
	Cell     string
	Pass     bool
	Limiting string
	Checks   []Judged
}

// Judge holds one cell of a report to the rules. Unless allowErrors, client
// errors fail the cell too.
func Judge(res CellResult, rules []Rule, allowErrors bool) Verdict {
	v := Verdict{Cell: res.Cell.Key(), Pass: true}
	for _, r := range rules {
		value := r.measure(res)
		headroom := r.Threshold - value
		if r.Op == ">" || r.Op == ">=" {
			headroom = -headroom
		}
		if r.Threshold > 0 {
			headroom /= r.Threshold
		} else if headroom < 0 {
			headroom = -1 // a zero threshold with a nonzero value: fully violated
		}
		v.Checks = append(v.Checks, Judged{Name: r.Name, Value: formatValue(value, units[r.Metric]),
			OK: r.Holds(value), headroom: headroom})
	}
	if !allowErrors {
		n := res.Client.Errors
		c := Judged{Name: "errors", Value: fmt.Sprint(n), OK: n == 0}
		if n > 0 {
			c.headroom = -1
		}
		v.Checks = append(v.Checks, c)
	}
	for _, c := range v.Checks {
		v.Pass = v.Pass && c.OK
	}
	best := 0.0
	for _, c := range v.Checks {
		if v.Pass != c.OK {
			continue // when failing, only violated checks compete
		}
		if v.Limiting == "" || c.headroom < best {
			v.Limiting, best = c.Name, c.headroom
		}
	}
	return v
}
