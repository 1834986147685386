// Package cluster stubs the seal-time clustering entry points the
// lockdiscipline fixture treats as blocking compute.
package cluster

func KMeansBinary(k int) int { return k }

func HierarchicalBinaryP(n int) int { return n }
