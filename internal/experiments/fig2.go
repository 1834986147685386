package experiments

import (
	"fmt"
	"strings"
	"time"

	"logr/internal/cluster"
	"logr/internal/core"
	"logr/internal/mining"
)

// Fig2Point is one (dataset, method, K) cell of Figure 2: Error (2a),
// Total Verbosity (2b) and runtime (2c) of the naive mixture encoding
// produced by each clustering method.
type Fig2Point struct {
	Dataset   string
	Method    string // "kmeans-euclidean", "spectral-manhattan", ...
	K         int
	Error     float64
	Verbosity int
	Seconds   float64
}

// Figure2 sweeps cluster counts for the four Section 6.1 configurations on
// both query logs. Spectral runs share one eigendecomposition per
// (dataset, metric); the reported per-K time still charges the build cost,
// matching what a standalone run (as in the paper) would pay.
func Figure2(s Scale) ([]Fig2Point, error) {
	d := load(s)
	var out []Fig2Point
	for _, nl := range d.logsByName() {
		points, weights := nl.log.Dense()

		// kmeans-euclidean
		for _, k := range s.Ks() {
			t0 := time.Now()
			asg := cluster.KMeans(points, weights, cluster.KMeansOptions{K: k, Seed: s.Seed, Restarts: 3})
			mix, parts := core.BuildNaiveMixture(nl.log, asg)
			el := time.Since(t0)
			e, err := mix.Error(parts)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig2Point{
				Dataset: nl.name, Method: "kmeans-euclidean", K: k,
				Error: e, Verbosity: mix.TotalVerbosity(), Seconds: el.Seconds(),
			})
		}

		// spectral with the three paper metrics
		for _, m := range []struct {
			name   string
			metric cluster.Metric
		}{
			{"spectral-manhattan", cluster.Manhattan},
			{"spectral-minkowski", cluster.Minkowski},
			{"spectral-hamming", cluster.Hamming},
		} {
			model, err := mining.NewSpectralModel(points, cluster.MetricFunc(m.metric, 4), 0)
			if err != nil {
				return nil, err
			}
			for _, k := range s.Ks() {
				t0 := time.Now()
				asg := model.Cluster(k, weights, s.Seed)
				mix, parts := core.BuildNaiveMixture(nl.log, asg)
				el := time.Since(t0) + model.BuildTime
				e, err := mix.Error(parts)
				if err != nil {
					return nil, err
				}
				out = append(out, Fig2Point{
					Dataset: nl.name, Method: m.name, K: k,
					Error: e, Verbosity: mix.TotalVerbosity(), Seconds: el.Seconds(),
				})
			}
		}
	}
	return out, nil
}

// FormatFigure2 prints the three panels' series.
func FormatFigure2(points []Fig2Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 2: Error / Total Verbosity / runtime vs number of clusters\n")
	fmt.Fprintf(&sb, "%-12s %-20s %4s %12s %10s %10s\n",
		"dataset", "method", "K", "error", "verbosity", "seconds")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-12s %-20s %4d %12.4f %10d %10.3f\n",
			p.Dataset, p.Method, p.K, p.Error, p.Verbosity, p.Seconds)
	}
	return sb.String()
}
