package bench

import "github.com/hetfed/hetfed/internal/workload"

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
