package bench

import (
	"math"
	"sort"
)

// Result is one driven query as its driver saw it. Micros is the
// client-observed latency, in virtual time; a Result with Err set contributes
// to the error counts and is excluded from the latency distribution.
type Result struct {
	Micros      float64
	Degraded    bool
	Interrupted bool
	Err         error
}

// Summarize reduces a run's results to the client-observed statistics.
// wallMicros is the run's span from first launch to last completion;
// throughput is completed queries over that span. Percentiles are exact
// (nearest-rank over the sorted completions): a report answers "what did
// these samples measure", and the generator holds every one of them. The
// bucketed metrics.HistogramSnapshot.Quantile answers the other question —
// the quantile of a histogram series, where only bucket counts exist — so
// the two are not one implementation.
func Summarize(results []Result, wallMicros float64) ClientStats {
	st := ClientStats{Queries: len(results), WallMillis: wallMicros / 1e3}
	lat := make([]float64, 0, len(results))
	var sum float64
	for _, r := range results {
		switch {
		case r.Err != nil:
			st.Errors++
		default:
			st.Completed++
			lat = append(lat, r.Micros)
			sum += r.Micros
			if r.Degraded {
				st.Degraded++
			}
			if r.Interrupted {
				st.Interrupted++
			}
		}
	}
	if wallMicros > 0 {
		st.QPS = float64(st.Completed) / (wallMicros / 1e6)
	}
	if len(lat) == 0 {
		return st
	}
	sort.Float64s(lat)
	st.MeanMicros = sum / float64(len(lat))
	st.P50Micros = pctl(lat, 0.50)
	st.P95Micros = pctl(lat, 0.95)
	st.P99Micros = pctl(lat, 0.99)
	st.MaxMicros = lat[len(lat)-1]
	return st
}

// pctl is the nearest-rank percentile of a sorted sample: the smallest
// element with at least p·n of the sample at or below it, i.e. rank ⌈p·n⌉
// (index ⌈p·n⌉−1). Truncating p·n instead of taking its ceiling reads one
// rank too high whenever p·n is integral — p50 of 100 samples is the 50th
// element, not the 51st.
func pctl(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// meanStd returns a non-empty sample's mean and sample standard deviation.
func meanStd(xs []float64) (m, sd float64) {
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	for _, x := range xs {
		sd += (x - m) * (x - m)
	}
	return m, math.Sqrt(sd / max(1, float64(len(xs)-1)))
}
