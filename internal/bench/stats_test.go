package bench

import (
	"context"
	"errors"
	"testing"
)

// TestPctlNearestRank pins the nearest-rank definition: rank ⌈p·n⌉, both
// when p·n is integral (the historical off-by-one: p50 of 100 samples must
// read the 50th element, not the 51st) and when it is not.
func TestPctlNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1) // sorted 1..n: value == rank
		}
		return out
	}
	cases := []struct {
		name string
		n    int
		p    float64
		want float64
	}{
		{"empty", 0, 0.5, 0},
		{"single", 1, 0.99, 1},
		// Integral p·n: rank is exactly p·n.
		{"p50 of 100", 100, 0.50, 50},
		{"p95 of 100", 100, 0.95, 95},
		{"p99 of 100", 100, 0.99, 99},
		{"p50 of 2", 2, 0.50, 1},
		{"p25 of 4", 4, 0.25, 1},
		{"p75 of 4", 4, 0.75, 3},
		// Non-integral p·n: rank rounds up.
		{"p50 of 3", 3, 0.50, 2},
		{"p50 of 101", 101, 0.50, 51},
		{"p95 of 7", 7, 0.95, 7},
		{"p99 of 10", 10, 0.99, 10},
		{"p95 of 13", 13, 0.95, 13},
		// Extremes stay in range.
		{"p0 of 5", 5, 0, 1},
		{"p100 of 5", 5, 1, 5},
	}
	for _, tc := range cases {
		if got := pctl(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("%s: pctl = %g, want %g", tc.name, got, tc.want)
		}
	}
}

// TestSummarizePercentiles runs the nearest-rank rule through Summarize with
// a latency distribution where the integral-p·n off-by-one is visible.
func TestSummarizePercentiles(t *testing.T) {
	results := make([]Result, 100)
	for i := range results {
		results[i] = Result{Micros: float64(i + 1)}
	}
	// Two non-completions must not shift the completed-sample percentiles.
	results = append(results,
		Result{Err: errors.New("boom")},
		Result{Err: context.DeadlineExceeded})

	st := Summarize(results, 1e6)
	if st.Completed != 100 || st.Errors != 2 {
		t.Fatalf("counts = %+v", st)
	}
	if st.P50Micros != 50 {
		t.Errorf("p50 = %g, want 50", st.P50Micros)
	}
	if st.P95Micros != 95 {
		t.Errorf("p95 = %g, want 95", st.P95Micros)
	}
	if st.P99Micros != 99 {
		t.Errorf("p99 = %g, want 99", st.P99Micros)
	}
	if st.MaxMicros != 100 {
		t.Errorf("max = %g, want 100", st.MaxMicros)
	}
}
