package mining

import (
	"math/rand"

	"logr/internal/bitvec"
	"logr/internal/workload"
)

// Categorical datasets for the alternative-application experiments
// (Section 8, Table 2). Both are one-hot encodings of multi-valued
// attributes: every attribute contributes a *group* of mutually exclusive
// features — the anti-correlation structure Section 8.1.2 highlights as the
// reason the datasets are reducible from hundreds of features to their
// attribute count.

// CategoricalDataset carries the generated rows plus the group structure.
type CategoricalDataset struct {
	Data *Labeled
	// Groups[g] lists the feature indices of attribute g; exactly one is
	// set per row.
	Groups [][]int
}

// IncomeConfig sizes the IPUMS-Income-like dataset.
type IncomeConfig struct {
	// Rows is the tuple count. The real extract has 777,493 rows; the
	// default of 50,000 keeps experiments laptop-sized (set the full value
	// to match the paper's scale).
	Rows int
	Seed int64
}

// DefaultIncome reproduces Table 2's shape at reduced row count.
var DefaultIncome = IncomeConfig{Rows: 50000, Seed: 3}

// Income generates a census-like dataset: 9 categorical attributes one-hot
// encoded into 783 features (Table 2). Rows are drawn from latent
// "household type" classes that correlate the attributes (as real census
// data does — occupation, education and age move together), and the label
// "income > $100,000" follows the household type with little intrinsic
// noise, plus a top-occupation bonus. Globally the label looks balanced and
// needs many patterns to pin down (classical Laserlight improves slowly, as
// in Figure 6a); within a cluster it is nearly pure, which is why the
// partitioned runs of Figure 8 win on both Error and runtime.
func Income(cfg IncomeConfig) CategoricalDataset {
	if cfg.Rows <= 0 {
		cfg.Rows = DefaultIncome.Rows
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// 9 attribute groups summing to 783 features (IPUMS-like cardinalities)
	groupSizes := []int{150, 120, 200, 94, 60, 75, 40, 24, 20}
	return generateCategoricalClassLabel(rng, cfg.Rows, groupSizes, 9, 0.8,
		func(values []int, class int, rng *rand.Rand) bool {
			p := 0.10
			if class%2 == 0 {
				p = 0.88
			}
			if values[2] < 20 { // top-20 occupation codes
				p += 0.07
			}
			if p > 0.97 {
				p = 0.97
			}
			return rng.Float64() < p
		})
}

// MushroomConfig sizes the FIMI-Mushroom-like dataset.
type MushroomConfig struct {
	// Rows is the tuple count (paper: 8124).
	Rows int
	Seed int64
}

// DefaultMushroom matches Table 2.
var DefaultMushroom = MushroomConfig{Rows: 8124, Seed: 4}

// Mushroom generates a mushroom-like dataset: 21 categorical attributes
// one-hot encoded into 95 features (Table 2). Rows are drawn from latent
// "species" classes that correlate the attributes — the defining structure
// of the UCI data, where odor co-varies with spore print, gill color and
// habitat — and edibility is driven mostly by the odor-like attribute.
// Because the attributes co-vary, clustering separates species and label
// purity rises with K, which is what Figures 8–9 exploit.
func Mushroom(cfg MushroomConfig) CategoricalDataset {
	if cfg.Rows <= 0 {
		cfg.Rows = DefaultMushroom.Rows
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// 21 attribute groups summing to 95 features (UCI mushroom-ish)
	groupSizes := []int{6, 4, 8, 2, 9, 2, 2, 2, 6, 2, 5, 4, 4, 7, 9, 1, 4, 3, 5, 6, 4}
	return generateCategorical(rng, cfg.Rows, groupSizes, 12, 0.85, func(values []int, rng *rand.Rand) bool {
		// odor-like attribute (index 4, 9 values): values 0..3 almost
		// always edible, 5..8 almost always poisonous, 4 ambiguous.
		odor := values[4]
		var p float64
		switch {
		case odor <= 3:
			p = 0.95
		case odor == 4:
			p = 0.5
			if values[8] < 3 { // spore-print-like attribute
				p = 0.75
			}
		default:
			p = 0.04
		}
		if values[0] == 5 { // cap-shape oddity flips a few
			p = 1 - p
		}
		return rng.Float64() < p
	})
}

// generateCategorical draws rows from latentK latent classes. Each class
// has a prototype value per attribute; a row takes the prototype with
// probability coherence and otherwise a draw from the global (skewed) value
// distribution. High coherence mirrors real categorical data — a mushroom
// species nearly fixes its odor, spore print and gill color — which is what
// lets clustering recover the classes. latentK ≤ 1 or coherence ≤ 0
// degenerates to fully independent attributes.
func generateCategorical(rng *rand.Rand, rows int, groupSizes []int, latentK int, coherence float64, label func(values []int, rng *rand.Rand) bool) CategoricalDataset {
	return generateCategoricalClassLabel(rng, rows, groupSizes, latentK, coherence,
		func(values []int, _ int, rng *rand.Rand) bool { return label(values, rng) })
}

// generateCategoricalClassLabel is generateCategorical with the latent
// class exposed to the label function.
func generateCategoricalClassLabel(rng *rand.Rand, rows int, groupSizes []int, latentK int, coherence float64, label func(values []int, class int, rng *rand.Rand) bool) CategoricalDataset {
	total := 0
	groups := make([][]int, len(groupSizes))
	for g, sz := range groupSizes {
		groups[g] = make([]int, sz)
		for i := 0; i < sz; i++ {
			groups[g][i] = total + i
		}
		total += sz
	}
	// per-group skewed value popularity (real categorical data is never
	// uniform)
	popularity := make([][]float64, len(groupSizes))
	for g, sz := range groupSizes {
		popularity[g] = workload.ZipfWeights(sz, 1.1, 1)
		// shuffle so popular values are not always the low indices
		rng.Shuffle(sz, func(i, j int) {
			popularity[g][i], popularity[g][j] = popularity[g][j], popularity[g][i]
		})
	}
	if latentK < 1 {
		latentK = 1
	}
	// class prototypes: the characteristic value of each attribute
	prototypes := make([][]int, latentK)
	for c := range prototypes {
		prototypes[c] = make([]int, len(groupSizes))
		for g, sz := range groupSizes {
			prototypes[c][g] = rng.Intn(sz)
		}
	}
	classWeights := workload.ZipfWeights(latentK, 0.8, 1)

	d := NewLabeled(total)
	values := make([]int, len(groupSizes))
	for r := 0; r < rows; r++ {
		class := weightedIndex(classWeights, rng)
		v := bitvec.New(total)
		for g := range groupSizes {
			if rng.Float64() < coherence {
				values[g] = prototypes[class][g]
			} else {
				values[g] = weightedIndex(popularity[g], rng)
			}
			v.Set(groups[g][values[g]])
		}
		pos := 0
		if label(values, class, rng) {
			pos = 1
		}
		d.Add(v, 1, pos)
	}
	return CategoricalDataset{Data: d, Groups: groups}
}

func weightedIndex(w []float64, rng *rand.Rand) int {
	x := rng.Float64()
	for i, p := range w {
		x -= p
		if x <= 0 {
			return i
		}
	}
	return len(w) - 1
}
