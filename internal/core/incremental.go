package core

import (
	"math"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

// Incremental recompression: the online-monitoring loop of Section 2
// re-summarizes a growing log on every refresh, but only the delta appended
// since the previous summary is new information. Recompress places just
// that delta into the previous partition — an increment on a known vector
// rejoins the part its label names, a new distinct vector joins the part
// whose marginal vector is nearest (for 0/1 query vectors a part's
// Euclidean centroid IS its marginal vector, so the previous Naive
// encodings double as centroids, and cluster.NearestBinary scores them on
// the popcount kernels, like Compress) — and rebuilds the mixture. No
// clustering runs; what remains proportional to the full log is a single
// cheap linear pass (copying the partition onto the new universe and
// re-scoring the mixture). If the merged summary's Reproduction Error
// drifts too far above the previous one (the delta carries genuinely new
// structure the old partition cannot absorb), Recompress falls back to a
// full re-cluster.

// RecompressOptions tune the incremental path of Recompress.
type RecompressOptions struct {
	// MaxErrorGrowth is the allowed relative growth of the merged summary's
	// Reproduction Error over the previous summary's Err before Recompress
	// abandons the merge and falls back to a full re-cluster. 0 means the
	// default (0.10); a negative value disables the fallback and always
	// keeps the merged summary.
	MaxErrorGrowth float64
}

// DefaultMaxErrorGrowth is the fallback threshold used when
// RecompressOptions.MaxErrorGrowth is zero.
const DefaultMaxErrorGrowth = 0.10

// Recompress incrementally updates prev for a log that has grown.
//
// full is the current snapshot of the log; prevCounts are the per-distinct-
// vector multiplicities of the snapshot prev was compressed from, aligned
// with full's distinct-vector order (snapshots of the same encode pipeline
// keep distinct vectors in first-appearance order and only ever append, so
// full's first len(prevCounts) vectors are exactly prev's vectors over a
// possibly larger universe). The delta is therefore: multiplicity
// increments on known vectors, which rejoin the part prev.Assignment labels
// them with, plus brand-new distinct vectors, which join the nearest live
// part by cluster.NearestBinary. The result labels every distinct vector
// of full, so it can be the prev of the next Recompress.
//
// The returned bool reports whether the incremental path was used; false
// means a full re-cluster ran — because prev cannot support a merge (no
// parts, unknown Err, labels not covering prevCounts, a shrunk
// multiplicity) or because the merged error drifted past opts' threshold.
// The incremental path consumes no randomness, so its result is
// deterministic and independent of CompressOptions.Seed; the fallback path
// is the ordinary Compress.
func Recompress(prev *Compressed, full *Log, prevCounts []int, opts CompressOptions, ropts RecompressOptions) (*Compressed, bool, error) {
	return recompress(prev, full, prevCounts, opts, ropts, cluster.NearestBinary)
}

// recompress is Recompress with the kernel that places the new distinct
// vectors as a parameter, so tests can run a dense argmin on the same
// delta.
func recompress(prev *Compressed, full *Log, prevCounts []int, opts CompressOptions, ropts RecompressOptions,
	nearest func([]bitvec.Vector, [][]float64, int) []int) (*Compressed, bool, error) {
	growth := ropts.MaxErrorGrowth
	if growth == 0 {
		growth = DefaultMaxErrorGrowth
	}
	fullRecluster := func() (*Compressed, bool, error) {
		c, err := Compress(full, opts)
		return c, false, err
	}
	if prev == nil || prev.Mixture.K() == 0 || len(prev.Parts) == 0 || math.IsNaN(prev.Err) ||
		len(prev.Assignment.Labels) != len(prevCounts) || len(prevCounts) > full.Distinct() {
		return fullRecluster()
	}
	u := full.Universe()
	if u < prev.Mixture.Universe {
		return fullRecluster()
	}

	// Lift the previous partition onto the current universe. Grow copies,
	// so the merge below never mutates prev.
	merged := make([]*Log, len(prev.Parts))
	for i, p := range prev.Parts {
		merged[i] = p.Grow(u)
	}

	// Split the delta. An increment on a known vector lands on the vector's
	// slot in the part its label names: Partition and the appends below
	// keep each part's vectors in the log's order, so the slot is the
	// vector's rank among those sharing its label. New distinct vectors
	// queue for the nearest-part pass.
	labels := make([]int, full.Distinct())
	copy(labels, prev.Assignment.Labels)
	slot := make([]int, len(merged))
	var newIdx []int
	deltaTotal := 0
	for i := 0; i < full.Distinct(); i++ {
		if i >= len(prevCounts) {
			newIdx = append(newIdx, i)
			deltaTotal += full.Multiplicity(i)
			continue
		}
		count := full.Multiplicity(i) - prevCounts[i]
		p, j := merged[labels[i]], slot[labels[i]]
		slot[labels[i]]++
		if count == 0 {
			continue
		}
		if count < 0 || j >= len(p.vecs) || !p.vecs[j].Equal(full.Vector(i)) {
			// a shrunk multiplicity or a partition that does not hold
			// prev's log in order: prev belongs to a different log
			return fullRecluster()
		}
		p.mult[j] += count
		p.total += count
		deltaTotal += count
	}
	if deltaTotal == 0 {
		if u == prev.Mixture.Universe {
			return prev, true, nil
		}
		// Universe growth without new queries cannot happen in one encode
		// pipeline, but handle it: grown marginals are 0 on new features,
		// so neither model nor empirical entropy moves and Err is unchanged.
		return &Compressed{Mixture: prev.Mixture.Grow(u), Assignment: prev.Assignment, Parts: merged, Err: prev.Err}, true, nil
	}

	if len(newIdx) > 0 {
		// Each new distinct vector joins the live part whose marginal
		// vector is nearest in Euclidean distance.
		var liveIdx []int
		var cents [][]float64
		for pi, p := range merged {
			if p.Total() > 0 {
				liveIdx = append(liveIdx, pi)
				cents = append(cents, p.FeatureMarginals())
			}
		}
		vecs := make([]bitvec.Vector, len(newIdx))
		for t, fi := range newIdx {
			vecs[t] = full.Vector(fi)
		}
		for t, lbl := range nearest(vecs, cents, opts.Parallelism) {
			fi := newIdx[t]
			labels[fi] = liveIdx[lbl]
			p := merged[labels[fi]]
			p.vecs = append(p.vecs, vecs[t])
			p.mult = append(p.mult, full.Multiplicity(fi))
			p.total += full.Multiplicity(fi)
		}
	}

	mix := BuildMixtureP(merged, opts.Parallelism)
	e, err := mix.ErrorP(merged, opts.Parallelism)
	if err != nil {
		return fullRecluster()
	}
	if growth >= 0 && e > prev.Err*(1+growth) {
		return fullRecluster()
	}
	return &Compressed{Mixture: mix, Assignment: cluster.Assignment{Labels: labels, K: len(merged)}, Parts: merged, Err: e}, true, nil
}
