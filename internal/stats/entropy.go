package stats

import "math"

// BernoulliEntropy returns −p ln p − (1−p) ln(1−p), with the 0·log 0 = 0
// convention.
func BernoulliEntropy(p float64) float64 {
	h := 0.0
	if p > 0 {
		h -= p * math.Log(p)
	}
	if p < 1 {
		h -= (1 - p) * math.Log(1-p)
	}
	return h
}
