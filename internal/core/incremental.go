package core

import (
	"math"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

// Incremental recompression: the online-monitoring loop of Section 2
// re-summarizes a growing log on every refresh, but only the delta appended
// since the previous summary is new information. Recompress clusters just
// that delta — warm-started from the previous summary's component centroids
// (for 0/1 query vectors, a partition's Euclidean centroid IS its marginal
// vector, so the previous Naive encodings double as centroids; the
// assignment itself runs on the popcount kernels, like Compress) — merges it
// into the prior partition, and rebuilds the mixture. The expensive step
// of a refresh — clustering, with its many passes over the vectors — is
// thereby delta-only; what remains proportional to the full log is a
// single cheap linear pass (copying the partition onto the new universe
// and re-scoring the mixture). If the merged
// summary's Reproduction Error drifts too far above the previous one (the
// delta carries genuinely new structure the old partition cannot absorb),
// Recompress falls back to a full re-cluster.

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
// increments on known vectors, which rejoin the partition holding their
// vector, plus brand-new distinct vectors, which are assigned to the
// nearest existing component by a warm-started k-means over the delta only.
//
// The returned bool reports whether the incremental path was used; false
// means a full re-cluster ran — because prev cannot support a merge (no
// parts, unknown Err, inconsistent counts) or because the merged error
// drifted past opts' threshold. The incremental path consumes no
// randomness, so its result is deterministic and independent of
// CompressOptions.Seed; the fallback path is the ordinary Compress.
func Recompress(prev *Compressed, full *Log, prevCounts []int, opts CompressOptions, ropts RecompressOptions) (*Compressed, bool, error) {
	return recompress(prev, full, prevCounts, opts, ropts, cluster.KMeansBinary)
}

// recompress is Recompress with the k-means kernel that assigns the new
// distinct vectors as a parameter, so tests can run the dense kernel on
// the same delta.
func recompress(prev *Compressed, full *Log, prevCounts []int, opts CompressOptions, ropts RecompressOptions,
	kmeans func(cluster.BinaryPoints, cluster.KMeansOptions) cluster.Assignment) (*Compressed, bool, error) {
	growth := ropts.MaxErrorGrowth
	if growth == 0 {
		growth = DefaultMaxErrorGrowth
	}
	fullRecluster := func() (*Compressed, bool, error) {
		c, err := Compress(full, opts)
		return c, false, err
	}
	if prev == nil || prev.Mixture.K() == 0 || len(prev.Parts) == 0 ||
		math.IsNaN(prev.Err) || len(prevCounts) > full.Distinct() {
		return fullRecluster()
	}
	u := full.Universe()
	if u < prev.Mixture.Universe {
		return fullRecluster()
	}

	// Lift the previous partition onto the current universe. Grow copies,
	// so the merge below never mutates prev.
	merged := make([]*Log, len(prev.Parts))
	partOf := map[string]int{} // distinct-vector key → part index
	for i, p := range prev.Parts {
		merged[i] = p.Grow(u)
		for d := 0; d < merged[i].Distinct(); d++ {
			partOf[merged[i].Vector(d).Key()] = i
		}
	}

	// Split the delta: increments on known vectors rejoin their part;
	// new distinct vectors queue for warm-start assignment.
	var newIdx, newCount []int
	deltaTotal := 0
	for i := 0; i < full.Distinct(); i++ {
		count := full.Multiplicity(i)
		if i < len(prevCounts) {
			count -= prevCounts[i]
		}
		if count < 0 {
			// multiplicities never shrink in one pipeline; prev belongs to
			// a different log
			return fullRecluster()
		}
		if count == 0 {
			continue
		}
		deltaTotal += count
		if pi, ok := partOf[full.Vector(i).Key()]; ok {
			merged[pi].Add(full.Vector(i), count)
			continue
		}
		if i < len(prevCounts) {
			// a vector prev's snapshot held is missing from its partition:
			// inconsistent baseline
			return fullRecluster()
		}
		newIdx = append(newIdx, i)
		newCount = append(newCount, count)
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
		// Assign each new distinct vector to the nearest live part, where
		// "nearest" is the Euclidean distance to the part's marginal vector
		// — exactly one warm-started assignment step of Lloyd's algorithm.
		var liveIdx []int
		for pi, p := range merged {
			if p.Total() > 0 {
				liveIdx = append(liveIdx, pi)
			}
		}
		cents := make([][]float64, len(liveIdx))
		for j, pi := range liveIdx {
			cents[j] = merged[pi].FeatureMarginals()
		}
		pts := cluster.BinaryPoints{
			Vecs:    make([]bitvec.Vector, len(newIdx)),
			Weights: make([]float64, len(newIdx)),
		}
		for t, fi := range newIdx {
			pts.Vecs[t] = full.Vector(fi)
			pts.Weights[t] = float64(newCount[t])
		}
		asg := kmeans(pts, cluster.KMeansOptions{
			InitCentroids: cents,
			MaxIter:       1,
			Parallelism:   opts.Parallelism,
		})
		for t, lbl := range asg.Labels {
			merged[liveIdx[lbl]].Add(full.Vector(newIdx[t]), newCount[t])
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
	// Instance-level merging has no distinct-vector labeling (an increment
	// may share a part with vectors a full re-cluster would separate); as
	// with SplitWorst, the partition itself is the authoritative grouping.
	return &Compressed{Mixture: mix, Assignment: cluster.Assignment{K: len(merged)}, Parts: merged, Err: e}, true, nil
}
