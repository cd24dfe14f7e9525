package bench

import (
	"context"
	"sync"

	"github.com/hetfed/hetfed/internal/workload"
)

// QueryFunc executes one query of a driven run. Implementations must honor
// ctx (RunClosed cancels stragglers through it) and classify their outcome
// in the returned Result.
type QueryFunc func(ctx context.Context) Result

// DrawVariants pre-draws the variant choice for n arrivals. Drawing happens
// single-threaded before any query launches, so the sequence depends only
// on the seed — never on goroutine interleaving. A nil sampler (one query,
// no skew) yields all zeros.
func DrawVariants(z *workload.Zipf, n int) []int {
	out := make([]int, n)
	if z == nil {
		return out
	}
	for i := range out {
		out[i] = z.Next()
	}
	return out
}

// RunClosed drives n queries through fn from a fixed pool of concurrent
// clients (closed loop: each client issues its next query only after its
// previous one completes), dealt to clients round-robin by index. A
// cancelled ctx stops every client at its next issue point and the call
// returns once all in-flight queries unwind; unissued slots come back as
// zero Results with Err = ctx.Err().
func RunClosed(ctx context.Context, clients, n int, fn QueryFunc) []Result {
	clients = min(max(clients, 1), n)
	results := make([]Result, n)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				if err := ctx.Err(); err != nil {
					results[i] = Result{Err: err}
					continue
				}
				results[i] = fn(ctx)
			}
		}(c)
	}
	wg.Wait()
	return results
}
