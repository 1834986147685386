package experiments

import (
	"fmt"
	"strings"

	"logr/internal/cluster"
	"logr/internal/core"
	"logr/internal/mining"
)

// Fig8Point is one K cell of Figure 8 on the Income-like data: Laserlight
// Mixture Fixed (global budget split by the Appendix D.3 weights) against
// classical Laserlight with the same budget. Seconds is the miners' own
// wall time, as classical Laserlight's is; the k-means partitioning of the
// distinct vectors is not charged.
type Fig8Point struct {
	K       int
	Error   float64
	Seconds float64
}

// Fig8Result holds the sweep plus the classical baseline (K = 1).
type Fig8Result struct {
	Mixture        []Fig8Point
	ClassicalError float64
	ClassicalSecs  float64
	Budget         int
}

// Figure8 reproduces Section 8.1.3: as the data is partitioned into more
// clusters, both the Error and the runtime of Laserlight Mixture Fixed
// drop below classical Laserlight.
func Figure8(s Scale) (*Fig8Result, error) {
	d := load(s)
	income := d.income.Data
	res := &Fig8Result{Budget: s.Fig8Budget}

	classical := mining.Laserlight(income, mining.LaserlightOptions{
		Patterns: s.Fig8Budget, Seed: s.Seed,
	})
	res.ClassicalError = classical.Error()
	res.ClassicalSecs = classical.Elapsed.Seconds()

	pts := income.Binary()
	for _, k := range fig8Ks(s.MaxClusters) {
		asg := cluster.KMeansBinary(pts, cluster.KMeansOptions{K: k, Seed: s.Seed, Restarts: 2})
		parts := income.Partition(asg)
		r := mining.LaserlightMixtureFixed(parts, s.Fig8Budget, mining.LaserlightOptions{Seed: s.Seed})
		res.Mixture = append(res.Mixture, Fig8Point{K: k, Error: r.Error, Seconds: r.Elapsed.Seconds()})
	}
	return res, nil
}

// fig8Ks mirrors the paper's 1,2,4,...,18 sweep, clamped to maxK.
func fig8Ks(maxK int) []int {
	ks := []int{1}
	for k := 2; k <= maxK && k <= 18; k += 2 {
		ks = append(ks, k)
	}
	return ks
}

// FormatFigure8 prints the sweep with the classical baseline.
func FormatFigure8(r *Fig8Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8 (Income): Laserlight Mixture Fixed (budget %d) vs classical (error %.1f, %.2fs)\n",
		r.Budget, r.ClassicalError, r.ClassicalSecs)
	fmt.Fprintf(&sb, "%4s %14s %10s\n", "K", "error", "seconds")
	for _, p := range r.Mixture {
		fmt.Fprintf(&sb, "%4d %14.1f %10.3f\n", p.K, p.Error, p.Seconds)
	}
	return sb.String()
}

// Fig9Point is one K cell of Figure 9 on the Mushroom data: naive mixture
// vs Laserlight/MTV Mixture Scaled under each baseline's own Error measure.
type Fig9Point struct {
	K int
	// Laserlight Error panel (9a)
	NaiveMixtureLL   float64
	LaserlightScaled float64
	// MTV Error panel (9b)
	NaiveMixtureMTV float64
	MTVScaled       float64
}

// Fig9Result holds the sweep plus the K-independent reference lines.
type Fig9Result struct {
	Points []Fig9Point
	// references (Figure 9's dotted lines)
	NaiveLLRef      float64 // naive encoding under Laserlight Error
	ClassicalLLRef  float64 // classical Laserlight, 15 patterns
	NaiveMTVRef     float64
	ClassicalMTVRef float64
}

// Figure9 reproduces Section 8.1.4 on the Mushroom data: naive mixture
// encoding against the Mixture Scaled generalizations of both miners.
func Figure9(s Scale) (*Fig9Result, error) {
	d := load(s)
	mush := d.mushroom.Data
	mushLog := mush.UnlabeledLog()
	res := &Fig9Result{}

	res.NaiveLLRef = mining.LaserlightNaiveError(mush)
	classicalLL := mining.Laserlight(mush, mining.LaserlightOptions{Patterns: 15, Seed: s.Seed})
	res.ClassicalLLRef = classicalLL.Error()

	res.NaiveMTVRef = mining.MTVNaiveError(mushLog)
	classicalMTV, err := mining.MTV(mushLog, mining.MTVOptions{Patterns: s.MTVPatterns})
	if err != nil {
		return nil, err
	}
	res.ClassicalMTVRef = classicalMTV.Error()

	pts := mush.Binary()
	for k := 2; k <= minInt(18, s.MaxClusters); k += 4 {
		asg := cluster.KMeansBinary(pts, cluster.KMeansOptions{K: k, Seed: s.Seed, Restarts: 2})
		labeledParts := mush.Partition(asg)
		logParts := make([]*core.Log, len(labeledParts))
		for i, p := range labeledParts {
			logParts[i] = p.UnlabeledLog()
		}

		p := Fig9Point{K: k}
		p.NaiveMixtureLL = mining.LaserlightNaiveMixtureError(labeledParts)
		llScaled := mining.LaserlightMixtureScaled(labeledParts, mining.LaserlightOptions{Seed: s.Seed, ScaleIters: 30})
		p.LaserlightScaled = llScaled.Error

		p.NaiveMixtureMTV = mining.MTVNaiveMixtureError(logParts)
		mtvScaled, err := mining.MTVMixtureScaled(logParts, s.MTVPatterns, mining.MTVOptions{Patterns: s.MTVPatterns})
		if err != nil {
			return nil, err
		}
		p.MTVScaled = mtvScaled.Error
		res.Points = append(res.Points, p)
	}
	return res, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FormatFigure9 prints both panels with their reference lines.
func FormatFigure9(r *Fig9Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9 (Mushroom): references — naive LL %.1f, classical LL %.1f, naive MTV %.1f, classical MTV %.1f\n",
		r.NaiveLLRef, r.ClassicalLLRef, r.NaiveMTVRef, r.ClassicalMTVRef)
	fmt.Fprintf(&sb, "%4s %16s %16s %16s %16s\n",
		"K", "naiveMix (LL)", "LL scaled", "naiveMix (MTV)", "MTV scaled")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%4d %16.1f %16.1f %16.1f %16.1f\n",
			p.K, p.NaiveMixtureLL, p.LaserlightScaled, p.NaiveMixtureMTV, p.MTVScaled)
	}
	return sb.String()
}
