// Package bitvectest holds test helpers for packed bit vectors: the dense
// float expansion that the equivalence tests of bitvec, cluster and core
// hold the packed kernels to. Production code never expands a vector.
package bitvectest

import "logr/internal/bitvec"

// Dense returns v as a []float64 of 0s and 1s.
func Dense(v bitvec.Vector) []float64 {
	out := make([]float64, v.Len())
	v.ForEach(func(i int) { out[i] = 1 })
	return out
}
