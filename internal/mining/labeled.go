// Package mining holds the algorithms the paper's evaluation runs but the
// serving path never does; the figure drivers (internal/experiments) are
// its callers, and logrd and logrd-gateway never link it.
//
// The two state-of-the-art pattern-based summarizers the paper compares
// against (Sections 7.2 and 8):
//
//   - Laserlight — El Gebaly et al., "Interpretable and informative
//     explanations of outcomes" (explanation tables): greedily mines
//     patterns that predict a binary augmented attribute, estimating it
//     with a conditional maximum-entropy model and scoring candidates by
//     information gain over a small sample (16 by default, as in the
//     paper's Appendix D.1).
//
//   - MTV — Mampaey et al., "Summarizing data succinctly with the most
//     informative itemsets": greedily mines itemsets that most improve a
//     BIC-penalized maximum-entropy model of the full joint distribution.
//
// Both algorithms are also generalized to partitioned data (Section 8.1.3)
// in two flavors: Mixture Fixed (a global pattern budget distributed across
// clusters by the Appendix D.3 weighting) and Mixture Scaled (each cluster
// mines as many patterns as its naive encoding's verbosity). Income and
// Mushroom generate their Table 2 input datasets.
//
// Alongside them, the paper's measurement machinery:
//
//   - Spectral — normalized spectral clustering of packed binary vectors,
//     the third partitioning method of Section 6.1 (Figure 2);
//   - SynthesisError and MarginalDeviation — the fidelity measures of
//     Section 6.3 over a core.Mixture (Figure 3);
//   - PatternEncoding and DeviationSampler — general pattern encodings
//     and the Appendix C sampler that estimates their Deviation, which
//     validates the Reproduction Error (Section 7.1, Figures 4–5).
package mining

import (
	"fmt"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

// Labeled is a dataset of binary feature vectors augmented with a binary
// outcome attribute — Laserlight's input shape. Distinct vectors are stored
// with total and positive-outcome multiplicities.
type Labeled struct {
	universe int
	vecs     []bitvec.Vector
	count    []int // rows carrying this vector
	pos      []int // rows carrying this vector with outcome = 1
	index    map[string]int
	total    int
	totalPos int
}

// NewLabeled returns an empty labeled dataset over n features.
func NewLabeled(n int) *Labeled {
	return &Labeled{universe: n, index: map[string]int{}}
}

// Add inserts count rows with vector v, pos of which have outcome 1.
func (d *Labeled) Add(v bitvec.Vector, count, pos int) {
	if v.Len() != d.universe {
		panic(fmt.Sprintf("mining: vector universe %d != dataset universe %d", v.Len(), d.universe))
	}
	if count <= 0 {
		return
	}
	if pos < 0 || pos > count {
		panic("mining: pos outside [0, count]")
	}
	k := v.Key()
	if i, ok := d.index[k]; ok {
		d.count[i] += count
		d.pos[i] += pos
	} else {
		d.index[k] = len(d.vecs)
		d.vecs = append(d.vecs, v.Clone())
		d.count = append(d.count, count)
		d.pos = append(d.pos, pos)
	}
	d.total += count
	d.totalPos += pos
}

// Universe returns the feature-universe size.
func (d *Labeled) Universe() int { return d.universe }

// Total returns |D|, the number of rows.
func (d *Labeled) Total() int { return d.total }

// Distinct returns the number of distinct vectors.
func (d *Labeled) Distinct() int { return len(d.vecs) }

// PositiveRate returns the overall P(v = 1).
func (d *Labeled) PositiveRate() float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.totalPos) / float64(d.total)
}

// Vector returns the i-th distinct vector.
func (d *Labeled) Vector(i int) bitvec.Vector { return d.vecs[i] }

// Count returns the multiplicity of the i-th distinct vector.
func (d *Labeled) Count(i int) int { return d.count[i] }

// Pos returns the positive-outcome multiplicity of the i-th distinct vector.
func (d *Labeled) Pos(i int) int { return d.pos[i] }

// Support returns the number of rows whose vector contains b and, of those,
// how many have outcome 1.
func (d *Labeled) Support(b bitvec.Vector) (rows, posRows int) {
	for i, v := range d.vecs {
		if v.Contains(b) {
			rows += d.count[i]
			posRows += d.pos[i]
		}
	}
	return rows, posRows
}

// UsedFeatures counts features that occur in at least one row.
func (d *Labeled) UsedFeatures() int {
	seen := bitvec.New(d.universe)
	for _, v := range d.vecs {
		seen.OrInPlace(v)
	}
	return seen.Count()
}

// Binary returns the distinct vectors with their multiplicity weights as
// packed clustering input. The vectors are shared with the dataset, not
// copied; only the weight slice is allocated.
func (d *Labeled) Binary() cluster.BinaryPoints {
	weights := make([]float64, len(d.vecs))
	for i, c := range d.count {
		weights[i] = float64(c)
	}
	return cluster.BinaryPoints{Vecs: d.vecs, Weights: weights}
}

// Partition splits the dataset by a clustering of its distinct vectors.
func (d *Labeled) Partition(asg cluster.Assignment) []*Labeled {
	if len(asg.Labels) != len(d.vecs) {
		panic("mining: assignment length mismatch")
	}
	parts := make([]*Labeled, asg.K)
	for i := range parts {
		parts[i] = NewLabeled(d.universe)
	}
	for i, v := range d.vecs {
		parts[asg.Labels[i]].Add(v, d.count[i], d.pos[i])
	}
	return parts
}
