package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta — the popularity skew of real query traffic (a few hot
// keys, a long cold tail). Unlike math/rand's Zipf it accepts any skew
// theta ≥ 0: theta = 0 is uniform, theta ≈ 1 the classic Zipf law, larger
// values sharper. Sampling is inverse-CDF over a precomputed cumulative
// table, so a Zipf driven by a seeded *rand.Rand is fully deterministic.
//
// The sampler itself is not safe for concurrent use (it shares the caller's
// rng); load generators sample the whole key sequence up front, which also
// keeps the sequence independent of goroutine interleaving.
type Zipf struct {
	cum []float64 // cum[k] = P(rank <= k), ascending, cum[n-1] == 1
	rng *rand.Rand
}

// NewZipf builds a sampler over n ranks with skew theta ≥ 0, drawing from
// rng. n must be ≥ 1; theta < 0 is clamped to 0 (uniform).
func NewZipf(rng *rand.Rand, n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	if theta < 0 {
		theta = 0
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), theta)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &Zipf{cum: cum, rng: rng}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Next draws one rank in [0, N).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
