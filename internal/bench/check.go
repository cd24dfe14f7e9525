package bench

import "fmt"

// tolerance is the relative regression tolerance of every baseline gate:
// 10 %, which every committed report's recipe and every gate uses.
const tolerance = 0.10

// latencySlackMicros absorbs sub-microsecond float wiggle when comparing
// virtual-time latencies, which are otherwise reproduced to the digit.
const latencySlackMicros = 1.0

// Violation is one regression Check found.
type Violation struct {
	Cell   string  `json:"cell"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s %.2f → %.2f", v.Cell, v.Metric, v.Old, v.New)
}

// specViolations flags two matrix reports that did not drive the same load:
// comparing a 3-query run against a 6-query baseline cell by cell would
// pass or fail on the shape, not on the code. The sweep dimensions may
// differ (a grown matrix is fine); the load shape every cell shares may not.
// These violations carry "spec" for their cell.
func specViolations(baseline, current *Report) []Violation {
	old, oldOK := baseline.Spec.(MatrixSpec)
	cur, curOK := current.Spec.(MatrixSpec)
	if !oldOK || !curOK {
		return nil
	}
	var out []Violation
	same := func(metric string, oldV, newV float64) {
		if oldV != newV {
			out = append(out, Violation{Cell: "spec", Metric: metric, Old: oldV, New: newV})
		}
	}
	same("queries", float64(old.Queries), float64(cur.Queries))
	same("variants", float64(old.Variants), float64(cur.Variants))
	same("zipf", old.Zipf, cur.Zipf)
	same("scale", old.Scale, cur.Scale)
	same("seed", float64(old.Seed), float64(cur.Seed))
	return out
}

// Check compares a new report against a baseline under the relative
// tolerance (10 %). It first flags a differing load shape (see specViolations),
// then for every baseline matrix cell:
//
//   - latency regressions: p50/p95/p99 above baseline by more than the
//     tolerance,
//   - throughput regressions: qps below baseline by more than the tolerance,
//   - answer-quality regressions: the maybe or degraded fraction up by more
//     than the tolerance in absolute terms, or client errors appearing where
//     the baseline had none,
//   - coverage regressions: a baseline cell missing from the new report.
//
// Cells only the new report has are fine (the matrix grew). An empty return
// means the new report is no worse than the baseline.
func Check(baseline, current *Report) []Violation {
	out := specViolations(baseline, current)
	for _, old := range baseline.Results() {
		key := old.Cell.Key()
		cur, ok := current.Get(key)
		if !ok {
			out = append(out, Violation{Cell: key, Metric: "missing"})
			continue
		}
		add := func(metric string, oldV, newV float64) {
			out = append(out, Violation{Cell: key, Metric: metric, Old: oldV, New: newV})
		}
		lat := func(metric string, oldV, newV float64) {
			if newV > oldV*(1+tolerance)+latencySlackMicros {
				add(metric, oldV, newV)
			}
		}
		lat("p50_us", old.Client.P50Micros, cur.Client.P50Micros)
		lat("p95_us", old.Client.P95Micros, cur.Client.P95Micros)
		lat("p99_us", old.Client.P99Micros, cur.Client.P99Micros)
		if cur.Client.QPS < old.Client.QPS*(1-tolerance) {
			add("qps", old.Client.QPS, cur.Client.QPS)
		}
		if cur.Server.MaybeFrac > old.Server.MaybeFrac+tolerance {
			add("maybe_frac", old.Server.MaybeFrac, cur.Server.MaybeFrac)
		}
		if cur.Server.DegradedFrac > old.Server.DegradedFrac+tolerance {
			add("degraded_frac", old.Server.DegradedFrac, cur.Server.DegradedFrac)
		}
		if old.Client.Errors == 0 && cur.Client.Errors > 0 {
			add("errors", float64(old.Client.Errors), float64(cur.Client.Errors))
		}
	}
	return out
}
