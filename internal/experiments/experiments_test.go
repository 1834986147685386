package experiments

import (
	"strings"
	"testing"
)

// The experiment drivers are validated at Small scale: every driver must
// run end-to-end and reproduce the paper's qualitative shapes.

func TestTable1(t *testing.T) {
	out := Table1(Small)
	for _, want := range []string{"PocketData", "US bank", "# Distinct conjunctive queries"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	// every row, the with-constants features included, as the pipeline
	// that parsed each distinct statement and kept a with-constants
	// codebook computed it
	const want = `Statistics                             PocketData      US bank
# Queries                                    4000         4000
# Distinct queries                            120          420
# Distinct queries (w/o const)                120          150
# Distinct conjunctive queries                 25          127
# Distinct re-writable queries                120          150
Max query multiplicity                        326          554
# Distinct features                            87         1238
# Distinct features (w/o const)                87          436
Average features per query                  10.42         7.28
# Stored procedures (skipped)                   0           20
# Unparseable (skipped)                         0           10
`
	if out != want {
		t.Errorf("Table 1 at Small scale:\n%s\nwant:\n%s", out, want)
	}
}

func TestTable2(t *testing.T) {
	out := Table2(Small)
	for _, want := range []string{"Income", "Mushroom", "Edibility"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFigure2Shapes(t *testing.T) {
	points, err := Figure2(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// index by dataset+method
	series := map[string][]Fig2Point{}
	for _, p := range points {
		k := p.Dataset + "/" + p.Method
		series[k] = append(series[k], p)
	}
	if len(series) != 8 { // 2 datasets × 4 methods
		t.Fatalf("series = %d, want 8", len(series))
	}
	for name, ps := range series {
		first, last := ps[0], ps[len(ps)-1]
		// 2a: error falls from K=1 to K=max
		if last.Error > first.Error+1e-9 {
			t.Errorf("%s: error rose %g -> %g", name, first.Error, last.Error)
		}
		// 2b: verbosity does not fall
		if last.Verbosity < first.Verbosity {
			t.Errorf("%s: verbosity fell %d -> %d", name, first.Verbosity, last.Verbosity)
		}
	}
	// 2c: k-means is much faster than spectral (paper: orders of
	// magnitude). Individual per-K samples are milliseconds at Small scale
	// and jitter under load, so compare whole-sweep totals with slack.
	for _, ds := range []string{"PocketData", "US bank"} {
		kmTotal, spTotal := 0.0, 0.0
		for _, p := range series[ds+"/kmeans-euclidean"] {
			kmTotal += p.Seconds
		}
		for _, p := range series[ds+"/spectral-hamming"] {
			spTotal += p.Seconds
		}
		if kmTotal > 1.5*spTotal {
			t.Errorf("%s: kmeans sweep (%gs) much slower than spectral sweep (%gs)",
				ds, kmTotal, spTotal)
		}
	}
	checkGolden(t, "figures_small.txt", "fig2", fig2Golden(points))
	_ = FormatFigure2(points)
}

func TestFigure3Shapes(t *testing.T) {
	points, err := Figure3(Small, 400)
	if err != nil {
		t.Fatal(err)
	}
	byDS := map[string][]Fig3Point{}
	for _, p := range points {
		byDS[p.Dataset] = append(byDS[p.Dataset], p)
	}
	for ds, ps := range byDS {
		first, last := ps[0], ps[len(ps)-1]
		if last.ReproductionError > first.ReproductionError+1e-9 {
			t.Errorf("%s: repro error rose with K", ds)
		}
		// synthesis error and marginal deviation drop alongside
		if last.SynthesisError > first.SynthesisError+0.1 {
			t.Errorf("%s: synthesis error rose: %g -> %g", ds, first.SynthesisError, last.SynthesisError)
		}
		if last.MarginalDeviation > first.MarginalDeviation+0.1 {
			t.Errorf("%s: marginal deviation rose: %g -> %g", ds, first.MarginalDeviation, last.MarginalDeviation)
		}
	}
	checkGolden(t, "figures_small.txt", "fig3", fig3Golden(points))
	_ = FormatFigure3(points)
}

func TestFigure4Shapes(t *testing.T) {
	r, err := Figure4(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Containment) == 0 || len(r.ErrDev) == 0 || len(r.CorrRank) == 0 {
		t.Fatalf("empty panels: %d %d %d", len(r.Containment), len(r.ErrDev), len(r.CorrRank))
	}
	// 4a/4b: the paper reports agreement for "virtually all" pairs, with
	// boxplot outliers below zero. Under Monte-Carlo noise we require the
	// mean gap to be positive and gross violations to be rare.
	neg := 0
	meanGap := 0.0
	for _, p := range r.Containment {
		meanGap += p.DGap
		if p.DGap < -0.05 {
			neg++
		}
	}
	meanGap /= float64(len(r.Containment))
	if meanGap <= 0 {
		t.Errorf("mean containment gap = %g, want > 0", meanGap)
	}
	if frac := float64(neg) / float64(len(r.Containment)); frac > 0.3 {
		t.Errorf("containment violated on %.0f%% of pairs", frac*100)
	}
	// 4e/4f: corr_rank negatively correlates with refined error
	var xs, ys []float64
	for _, p := range r.CorrRank {
		xs = append(xs, p.CorrRank)
		ys = append(ys, p.Error)
	}
	if r := pearson(xs, ys); r > -0.2 {
		t.Errorf("corr_rank vs error correlation = %g, want strongly negative", r)
	}
	_ = FormatFigure4(r)
	checkGolden(t, "figures_small.txt", "fig4", fig4Golden(r))
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	num := sxy - sx*sy/n
	den := (sxx - sx*sx/n) * (syy - sy*sy/n)
	if den <= 0 {
		return 0
	}
	return num / sqrt(den)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

func TestFigure5Shapes(t *testing.T) {
	r, err := Figure5(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) == 0 {
		t.Fatal("no points")
	}
	for _, p := range r {
		// 5a: refinement may only reduce error
		if p.LaserlightPlus > p.NaiveError+1e-6 {
			t.Errorf("K=%d: naive+LL %g above naive %g", p.K, p.LaserlightPlus, p.NaiveError)
		}
		if p.MTVPlus > p.NaiveError+1e-6 {
			t.Errorf("K=%d: naive+MTV %g above naive %g", p.K, p.MTVPlus, p.NaiveError)
		}
		// 5b: pattern-only encodings are far worse than the naive mixture
		if p.LaserlightAlone < p.NaiveError || p.MTVAlone < p.NaiveError {
			t.Errorf("K=%d: pattern-only encodings beat naive mixture (LL %g, MTV %g, naive %g)",
				p.K, p.LaserlightAlone, p.MTVAlone, p.NaiveError)
		}
	}
	// 5c: naive mixture construction is faster than either miner at max K
	last := r[len(r)-1]
	if last.NaiveSecs > last.LaserlightSecs || last.NaiveSecs > last.MTVSecs {
		t.Errorf("naive mixture not fastest: %g vs LL %g / MTV %g",
			last.NaiveSecs, last.LaserlightSecs, last.MTVSecs)
	}
	checkGolden(t, "figures_small.txt", "fig5", fig5Golden(r))
	_ = FormatFigure5(r)
}

func TestFigure67Shapes(t *testing.T) {
	r, err := Figure67(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Laserlight) == 0 || len(r.MTV) == 0 {
		t.Fatal("empty curves")
	}
	// Fig 6: error decreases along each curve
	for i := 1; i < len(r.Laserlight); i++ {
		if r.Laserlight[i].Error > r.Laserlight[i-1].Error+1e-6 {
			t.Errorf("Laserlight error rose at %d patterns", i+1)
		}
	}
	for i := 1; i < len(r.MTV); i++ {
		if r.MTV[i].Error > r.MTV[i-1].Error+1e-6 {
			t.Errorf("MTV error rose at %d itemsets", i+1)
		}
	}
	// Fig 7: cumulative runtime grows
	lastLL := r.Laserlight[len(r.Laserlight)-1]
	if lastLL.Seconds < r.Laserlight[0].Seconds {
		t.Error("Laserlight time trace not cumulative")
	}
	_ = FormatFigure67(r)
}

func TestFigure8Shapes(t *testing.T) {
	r, err := Figure8(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mixture) < 2 {
		t.Fatal("sweep too short")
	}
	// partitioned error at max K must not exceed classical
	last := r.Mixture[len(r.Mixture)-1]
	if last.Error > r.ClassicalError*1.05 {
		t.Errorf("mixture error %g above classical %g at K=%d", last.Error, r.ClassicalError, last.K)
	}
	checkGolden(t, "figures_small.txt", "fig8", fig8Golden(r))
	_ = FormatFigure8(r)
}

func TestFigure9Shapes(t *testing.T) {
	r, err := Figure9(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range r.Points {
		// both mixtures beat their classical references (Figure 9's claim)
		if p.NaiveMixtureLL > r.NaiveLLRef+1e-6 {
			t.Errorf("K=%d: naive mixture LL %g above naive ref %g", p.K, p.NaiveMixtureLL, r.NaiveLLRef)
		}
		if p.NaiveMixtureMTV > r.NaiveMTVRef+1e-6 {
			t.Errorf("K=%d: naive mixture MTV %g above naive ref %g", p.K, p.NaiveMixtureMTV, r.NaiveMTVRef)
		}
	}
	checkGolden(t, "figures_small.txt", "fig9", fig9Golden(r))
	_ = FormatFigure9(r)
}
