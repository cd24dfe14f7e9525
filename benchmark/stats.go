package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples: the smallest value with at least p percent of the samples at or
// below it. It returns 0 for an empty sample. The input is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported as supported.
const minBeyond = 10

// supported reports whether n samples carry the p-th percentile: at least
// minBeyond samples rank above it. The median needs minBeyond samples on
// its upper side like any other percentile.
func supported(n int, p float64) bool {
	if n == 0 {
		return false
	}
	return n-rank(n, p) >= minBeyond
}

// median is the 50th percentile by the usual definition (mean of the two
// middle values for an even count), used for batches of repeated
// measurements rather than latency samples.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
