// Package cluster stubs the clustering entry points the lockdiscipline
// fixture treats as blocking compute.
package cluster

func KMeansBinary(k int) int { return k }

func NearestBinary(n int) []int { return make([]int, n) }

func HierarchicalBinaryP(n int) int { return n }
