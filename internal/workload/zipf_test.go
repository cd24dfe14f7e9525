package workload

import (
	"math/rand"
	"testing"
)

// TestZipfDeterministic: the same seed yields the same sequence, a
// different seed a different one.
func TestZipfDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		z := NewZipf(rand.New(rand.NewSource(seed)), 64, 0.99)
		out := make([]int, 200)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 200-draw sequence")
	}
}

// TestZipfSkew: a chi-square goodness-of-fit sanity bound against the
// sampler's own rank probabilities, plus a monotonicity check that the skew
// parameter actually concentrates mass on low ranks.
func TestZipfSkew(t *testing.T) {
	const n, draws = 16, 20000
	for _, theta := range []float64{0, 0.8, 1.5} {
		z := NewZipf(rand.New(rand.NewSource(42)), n, theta)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.Next()]++
		}
		chi2 := 0.0
		for k := 0; k < n; k++ {
			exp := z.prob(k) * draws
			if exp == 0 {
				continue
			}
			d := float64(counts[k]) - exp
			chi2 += d * d / exp
		}
		// 15 degrees of freedom: the 99.9th percentile of chi-square is
		// ~37.7; a correct sampler stays far under at 20k draws.
		if chi2 > 37.7 {
			t.Errorf("theta=%.1f: chi-square %.1f exceeds the 99.9%% bound", theta, chi2)
		}
		if theta > 0 {
			// Skew honored: rank 0 strictly more popular than a mid rank,
			// and its sample share near the sampler's stated probability.
			if counts[0] <= counts[n/2] {
				t.Errorf("theta=%.1f: rank 0 (%d) not hotter than rank %d (%d)",
					theta, counts[0], n/2, counts[n/2])
			}
			share := float64(counts[0]) / draws
			if want := z.prob(0); share < want*0.9 || share > want*1.1 {
				t.Errorf("theta=%.1f: rank-0 share %.3f, want within 10%% of %.3f",
					theta, share, want)
			}
		}
	}
	// Uniform check for theta = 0.
	z := NewZipf(rand.New(rand.NewSource(1)), 4, 0)
	for k := 0; k < 4; k++ {
		if p := z.prob(k); p < 0.249 || p > 0.251 {
			t.Errorf("theta=0: Prob(%d) = %.4f, want 0.25", k, p)
		}
	}
}

func TestZipfEdgeCases(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 0, -3) // clamped to n=1, theta=0
	if z.N() != 1 {
		t.Fatalf("N() = %d, want 1", z.N())
	}
	for i := 0; i < 10; i++ {
		if got := z.Next(); got != 0 {
			t.Fatalf("single-rank sampler drew %d", got)
		}
	}
	if z.prob(-1) != 0 || z.prob(1) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

// prob returns the sampler's probability of rank k (goodness-of-fit tests).
func (z *Zipf) prob(k int) float64 {
	if k < 0 || k >= len(z.cum) {
		return 0
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}
