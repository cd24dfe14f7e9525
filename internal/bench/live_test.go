package bench

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestLiveCellSmoke: one live-TCP cell end to end — real servers, scraped
// /metrics deltas, closed-loop concurrent clients.
func TestLiveCellSmoke(t *testing.T) {
	spec := MatrixSpec{
		Runtimes:   []string{"live"},
		Strategies: []string{"BL"},
		Workloads:  []string{"school"},
		Clients:    []int{2},
		Faults:     []string{"none"},
		Queries:    6,
		Zipf:       0.8,
		Variants:   2,
		Seed:       1,
	}
	r, err := Run(context.Background(), spec, "live-smoke", nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(r.Results()) != 1 {
		t.Fatalf("got %d cells", len(r.Results()))
	}
	c := r.Results()[0]
	if c.Client.Completed != 6 || c.Client.Errors != 0 {
		t.Fatalf("completed %d errors %d, want 6/0", c.Client.Completed, c.Client.Errors)
	}
	if c.Client.P50Micros <= 0 || c.Client.QPS <= 0 {
		t.Errorf("client stats empty: %+v", c.Client)
	}
	// Server truth scraped over HTTP: the coordinator's window saw exactly
	// the driven queries and real bytes moved.
	if c.Server.Queries != 6 {
		t.Errorf("scraped %d queries, want 6", c.Server.Queries)
	}
	if c.Server.NetBytes <= 0 {
		t.Errorf("scraped no network bytes")
	}
	if c.Server.DegradedFrac != 0 {
		t.Errorf("degraded frac %v on a healthy cluster", c.Server.DegradedFrac)
	}
}

// TestLiveCellDegraded: a live cell with a killed site returns degraded
// answers and the scrape window reports the quality drop.
func TestLiveCellDegraded(t *testing.T) {
	spec := MatrixSpec{
		Runtimes:   []string{"live"},
		Strategies: []string{"PL"},
		Workloads:  []string{"school"},
		Clients:    []int{1},
		Faults:     []string{"kill:DB3"},
		Queries:    3,
		Variants:   1,
		Seed:       2,
	}
	r, err := Run(context.Background(), spec, "live-degraded", nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := r.Results()[0]
	if c.Client.Degraded != c.Client.Completed || c.Client.Completed == 0 {
		t.Errorf("degraded %d of %d completed, want all", c.Client.Degraded, c.Client.Completed)
	}
	if c.Server.DegradedFrac != 1 {
		t.Errorf("scraped degraded frac %v, want 1", c.Server.DegradedFrac)
	}
}

// TestGeneratorsCancelCleanly: cancelling mid-run unwinds the closed-loop
// driver without leaking goroutines and reports the unissued work as errors.
func TestGeneratorsCancelCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var issued atomic.Int32
	fn := func(ctx context.Context, variant int) Result {
		if issued.Add(1) == 3 {
			cancel() // trip mid-run
		}
		select {
		case <-ctx.Done():
			return Result{Err: ctx.Err()}
		case <-time.After(time.Millisecond):
			return Result{Micros: 1000}
		}
	}
	results := RunClosed(ctx, 2, make([]int, 50), fn)
	if len(results) != 50 {
		t.Fatalf("got %d results", len(results))
	}
	st := Summarize(results, 1000)
	if st.Errors == 0 {
		t.Error("cancellation produced no error results")
	}
	if st.Completed+st.Errors != 50 {
		t.Errorf("results unaccounted: %+v", st)
	}
	cancel()

	// Drain check: a few scheduler yields, then the goroutine count is back
	// near the baseline (no generator goroutine outlives its RunClosed call).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
