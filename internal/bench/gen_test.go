package bench

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestGeneratorsCancelCleanly: cancelling mid-run unwinds the closed-loop
// driver without leaking goroutines and reports the unissued work as errors.
func TestGeneratorsCancelCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var issued atomic.Int32
	fn := func(ctx context.Context) Result {
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
	results := RunClosed(ctx, 2, 50, fn)
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
