package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"logr/internal/cluster"
	"logr/internal/core"
	"logr/internal/mining"
)

// Fig3Point is one (dataset, K) cell of Figure 3: synthesis error (3a) and
// marginal deviation (3b) against Reproduction Error, both falling as K
// grows.
type Fig3Point struct {
	Dataset           string
	K                 int
	ReproductionError float64
	SynthesisError    float64
	MarginalDeviation float64
}

// Figure3 sweeps K with k-means partitions and measures how well the naive
// mixture encoding approximates log statistics (Section 6.3): N patterns
// are synthesized from each partition's encoding and checked for positive
// marginals, and every distinct query is used as a worst-case probe for
// marginal estimation.
func Figure3(s Scale, synthesisN int) ([]Fig3Point, error) {
	if synthesisN <= 0 {
		synthesisN = 10000 // the paper's N
	}
	d := load(s)
	rng := rand.New(rand.NewSource(s.Seed))
	var out []Fig3Point
	for _, nl := range d.logsByName() {
		points, weights := nl.log.Dense()
		for _, k := range s.Ks() {
			asg := cluster.KMeans(points, weights, cluster.KMeansOptions{K: k, Seed: s.Seed, Restarts: 3})
			mix, parts := core.BuildNaiveMixture(nl.log, asg)
			e, err := mix.Error(parts)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig3Point{
				Dataset:           nl.name,
				K:                 k,
				ReproductionError: e,
				SynthesisError:    mining.SynthesisError(mix, parts, synthesisN, rng),
				MarginalDeviation: mining.MarginalDeviation(mix, parts),
			})
		}
	}
	return out, nil
}

// FormatFigure3 prints both panels' series.
func FormatFigure3(points []Fig3Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 3: Synthesis Error (3a) and Marginal Deviation (3b) vs Reproduction Error\n")
	fmt.Fprintf(&sb, "%-12s %4s %14s %14s %16s\n",
		"dataset", "K", "repro error", "synth error", "marginal dev")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-12s %4d %14.4f %14.4f %16.4f\n",
			p.Dataset, p.K, p.ReproductionError, p.SynthesisError, p.MarginalDeviation)
	}
	return sb.String()
}
