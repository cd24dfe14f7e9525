package bench

import (
	"fmt"

	"github.com/hetfed/hetfed/internal/obs/slo"
)

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

// Judge holds one cell of a report to objectives written in the slo rule
// grammar (a rule's window is the cell's whole run). A report keeps what it
// measured, not the series: a rule over anything else is an error that says
// so. Unless allowErrors, client errors fail the cell too.
func Judge(res CellResult, rules []slo.Rule, allowErrors bool) (Verdict, error) {
	v := Verdict{Cell: res.Cell.Key(), Pass: true}
	for _, r := range rules {
		var value float64
		switch {
		case r.Metric == "throughput":
			value = res.Client.QPS
		case r.Metric == "maybe_rows":
			value = res.Server.MaybeFrac
		case r.Metric == "degraded_queries":
			value = res.Server.DegradedFrac
		case r.Metric == "query_latency" && r.Agg == "mean":
			value = res.Client.MeanMicros
		case r.Metric == "query_latency" && r.Q == 0.50:
			value = res.Client.P50Micros
		case r.Metric == "query_latency" && r.Q == 0.95:
			value = res.Client.P95Micros
		case r.Metric == "query_latency" && r.Q == 0.99:
			value = res.Client.P99Micros
		default:
			return v, fmt.Errorf("bench: rule %q: a report keeps throughput, maybe_rows, degraded_queries and query_latency p50, p95, p99 and mean; it cannot judge %s %s",
				r.Name, r.Metric, r.Agg)
		}
		headroom := r.Threshold - value
		if r.Op == ">" || r.Op == ">=" {
			headroom = -headroom
		}
		if r.Threshold > 0 {
			headroom /= r.Threshold
		} else if headroom < 0 {
			headroom = -1 // a zero threshold with a nonzero value: fully violated
		}
		v.Checks = append(v.Checks, Judged{Name: r.Name, Value: slo.FormatValue(value, r.Unit),
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
	return v, nil
}
