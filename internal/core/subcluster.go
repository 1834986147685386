package core

import (
	"fmt"

	"logr/internal/cluster"
)

// Sub-clustering (Appendix E observes that one PocketData cluster was "too
// messy — further sub-clustering is needed"): instead of re-running a global
// K+1 clustering, split only the component contributing the most to the
// Generalized Reproduction Error. Repeated splits give the same dynamic
// Error/Verbosity control as hierarchical clustering, but steered by the
// error itself.

// WorstComponent returns the index of the component with the largest
// weighted Reproduction Error contribution, or -1 for an empty mixture.
func (c *Compressed) WorstComponent() int {
	worst, worstErr := -1, -1.0
	live := 0
	for i, comp := range c.Mixture.Components {
		part := c.liveParts()[live]
		live++
		e := c.Mixture.Weight(i) * comp.ReproductionError(part)
		if e > worstErr {
			worst, worstErr = i, e
		}
	}
	return worst
}

func (c *Compressed) liveParts() []*Log {
	var live []*Log
	for _, p := range c.Parts {
		if p.Total() > 0 {
			live = append(live, p)
		}
	}
	return live
}

// SplitWorst splits the highest-error component into two sub-clusters
// (k-means) and rebuilds the mixture. The Generalized Reproduction Error
// never increases (splitting a partition can only reduce each side's
// diversity); Verbosity typically grows by the number of shared features.
func (c *Compressed) SplitWorst(seed int64) (*Compressed, error) {
	wi := c.WorstComponent()
	if wi < 0 {
		return nil, fmt.Errorf("core: empty mixture")
	}
	live := c.liveParts()
	target := live[wi]
	if target.Distinct() < 2 {
		return nil, fmt.Errorf("core: worst component holds a single distinct query; nothing to split")
	}
	asg := cluster.KMeansBinary(target.Binary(), cluster.KMeansOptions{K: 2, Seed: seed, Restarts: 3})
	subParts := target.Partition(asg)

	var parts []*Log
	for i, p := range live {
		if i == wi {
			for _, sp := range subParts {
				if sp.Total() > 0 {
					parts = append(parts, sp)
				}
			}
			continue
		}
		parts = append(parts, p)
	}
	mix := BuildMixture(parts)
	e, err := mix.Error(parts)
	if err != nil {
		return nil, err
	}
	// global labels are not meaningful after a local split; the partition
	// itself is the authoritative grouping
	return &Compressed{Mixture: mix, Assignment: cluster.Assignment{K: len(parts)}, Parts: parts, Err: e}, nil
}

// RefineToTarget splits worst components until the error target is met or
// maxSplits is exhausted. It is LogR's "tolerate higher Total Verbosity for
// lower Error" loop (Section 6.1) driven by error attribution instead of a
// global re-clustering.
func (c *Compressed) RefineToTarget(targetError float64, maxSplits int, seed int64) (*Compressed, error) {
	cur := c
	for i := 0; i < maxSplits && cur.Err > targetError; i++ {
		next, err := cur.SplitWorst(seed + int64(i))
		if err != nil {
			// nothing left to split
			return cur, nil
		}
		cur = next
	}
	return cur, nil
}
