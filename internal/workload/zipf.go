// Package workload synthesizes the four datasets of the paper's evaluation
// and provides the parse→regularize→encode pipeline that turns raw SQL text
// into a core.Log.
//
// The real datasets are not shippable (the US bank log is proprietary;
// PocketData, IPUMS Income and FIMI Mushroom are third-party downloads), so
// each generator reproduces the *distributional shape* the experiments
// depend on — distinct-query counts, feature counts, multiplicity skew,
// workload mixing, label structure — as documented per generator.
package workload

import "math"

// ZipfWeights returns n multiplicity weights following a shifted Zipf law
// w_i ∝ 1/(i+shift)^s, normalized to sum to 1. Query logs are heavy-tailed:
// the paper's US bank log has a single query repeated 208,742 times out of
// 1.24M (≈17%), PocketData 48,651 of 629,582 (≈8%).
func ZipfWeights(n int, s, shift float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1)+shift, s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// AllocateCounts turns weights into integer multiplicities summing to
// total, each at least 1 (every distinct query occurred at least once).
func AllocateCounts(weights []float64, total int) []int {
	n := len(weights)
	out := make([]int, n)
	if n == 0 || total <= 0 {
		return out
	}
	if total < n {
		total = n // each distinct query needs ≥ 1 occurrence
	}
	remaining := total - n
	used := 0
	fracs := make([]float64, n)
	for i, w := range weights {
		exact := w * float64(remaining)
		out[i] = 1 + int(exact)
		used += out[i]
		fracs[i] = exact - float64(int(exact))
	}
	for used < total {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		out[best]++
		fracs[best] = -1
		used++
	}
	for used > total {
		// over-allocation can only come from the +1 floors; shave the tail
		for i := n - 1; i >= 0 && used > total; i-- {
			if out[i] > 1 {
				out[i]--
				used--
			}
		}
		break
	}
	return out
}
