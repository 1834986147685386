// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 7 and 8). Each driver returns structured rows/series
// and has a formatter printing the same columns the paper plots;
// cmd/logr-bench runs each driver by its experiment id (table1, fig2, ...).
package experiments

// Scale sizes the synthetic datasets and sweeps. The paper's full scale is
// expensive (its spectral-clustering runs took up to 10^5 seconds); Small
// keeps CI fast, Medium is the bench default with the same shapes.
type Scale struct {
	// query logs
	PocketTotal, PocketDistinct  int
	BankTotal, BankDistinct      int
	BankConstVariants, BankNoise int
	// categorical datasets
	IncomeRows, MushroomRows int
	// sweeps
	MaxClusters        int // Figure 2/3/5 K sweep upper bound (paper: 30)
	ClusterStep        int
	DeviationSamples   int // Figure 4 Monte-Carlo samples
	Fig4Features       int // sub-universe size for the Deviation experiments
	LaserlightPatterns int // Figure 6a/7a curve length (paper: ~800)
	MTVPatterns        int // Figure 6b/7b curve length (paper: 15)
	Fig8Budget         int // Figure 8 global pattern budget (paper: 100)
	Seed               int64
}

// Small keeps `go test ./...` fast.
var Small = Scale{
	PocketTotal: 4000, PocketDistinct: 120,
	BankTotal: 4000, BankDistinct: 150, BankConstVariants: 4, BankNoise: 30,
	IncomeRows: 2000, MushroomRows: 1200,
	MaxClusters: 6, ClusterStep: 1,
	DeviationSamples: 120, Fig4Features: 24,
	LaserlightPatterns: 12, MTVPatterns: 6,
	Fig8Budget: 12,
	Seed:       42,
}

// Medium is the default for `go test -bench`: large enough that every
// paper-shape is visible, small enough for a laptop.
var Medium = Scale{
	PocketTotal: 60000, PocketDistinct: 605,
	BankTotal: 120000, BankDistinct: 1000, BankConstVariants: 12, BankNoise: 300,
	IncomeRows: 20000, MushroomRows: 8124,
	MaxClusters: 30, ClusterStep: 2,
	DeviationSamples: 400, Fig4Features: 40,
	LaserlightPatterns: 40, MTVPatterns: 15,
	Fig8Budget: 40,
	Seed:       42,
}

// Paper scales the generators to the Table 1/2 row counts. Expect long
// runtimes on the spectral and Laserlight sweeps, as the paper did.
var Paper = Scale{
	PocketTotal: 629582, PocketDistinct: 605,
	BankTotal: 1244243, BankDistinct: 1712, BankConstVariants: 110, BankNoise: 2000,
	IncomeRows: 777493, MushroomRows: 8124,
	MaxClusters: 30, ClusterStep: 1,
	DeviationSamples: 1000, Fig4Features: 60,
	LaserlightPatterns: 100, MTVPatterns: 15,
	Fig8Budget: 100,
	Seed:       42,
}

// Ks returns the cluster sweep 1, 1+step, ... ≤ MaxClusters (always
// including MaxClusters).
func (s Scale) Ks() []int {
	step := s.ClusterStep
	if step <= 0 {
		step = 1
	}
	var ks []int
	for k := 1; k <= s.MaxClusters; k += step {
		ks = append(ks, k)
	}
	if len(ks) == 0 || ks[len(ks)-1] != s.MaxClusters {
		ks = append(ks, s.MaxClusters)
	}
	return ks
}
