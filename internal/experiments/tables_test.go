package experiments

import (
	"strings"
	"testing"

	"logr/internal/mining"
	"logr/internal/workload"
)

func TestFormatTable1(t *testing.T) {
	pocket := workload.Encode(workload.PocketData(workload.PocketDataConfig{
		TotalQueries: 2000, DistinctTarget: 60, Seed: 1,
	}), workload.EncodeOptions{})
	bank := workload.Encode(workload.USBank(workload.USBankConfig{
		TotalQueries: 2000, DistinctTarget: 60, ConstantVariants: 3, NoiseEntries: 9, Seed: 2,
	}), workload.EncodeOptions{})
	out := FormatTable1([]Table1Row{
		{Name: "PocketData", Stats: pocket.Stats},
		{Name: "US bank", Stats: bank.Stats},
	})
	for _, want := range []string{
		"# Queries", "# Distinct queries (w/o const)", "# Distinct conjunctive queries",
		"Max query multiplicity", "Average features per query", "PocketData", "US bank",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 12 {
		t.Errorf("Table 1 has %d lines, want 12", len(lines))
	}
}

// TestDistinctFeatures: Table 1's with-constants feature count, now an
// offline pass, matches the count the encoder used to keep in a second
// codebook, and exceeds the scrubbed count.
func TestDistinctFeatures(t *testing.T) {
	entries := workload.USBank(workload.USBankConfig{TotalQueries: 20000, DistinctTarget: 250, ConstantVariants: 5, NoiseEntries: 30, Seed: 2})
	s := workload.Encode(entries, workload.EncodeOptions{}).Stats
	got := DistinctFeatures(entries, workload.EncodeOptions{})
	if got != 2073 {
		t.Errorf("distinct features with constants = %d, want 2073", got)
	}
	if got <= s.FeaturesNoConst {
		t.Errorf("features with const %d should exceed without %d", got, s.FeaturesNoConst)
	}
}

func TestFormatTable2(t *testing.T) {
	income := mining.Income(mining.IncomeConfig{Rows: 500, Seed: 3})
	mushroom := mining.Mushroom(mining.MushroomConfig{Rows: 500, Seed: 4})
	rows := []Table2Row{
		DescribeCategorical("Income", "> 100,000?", income),
		DescribeCategorical("Mushroom", "Edibility", mushroom),
	}
	if rows[0].FeaturesPerRow != 9 || rows[1].FeaturesPerRow != 21 {
		t.Errorf("features per row = %d, %d", rows[0].FeaturesPerRow, rows[1].FeaturesPerRow)
	}
	out := FormatTable2(rows)
	for _, want := range []string{"# Distinct data tuples", "Edibility", "> 100,000?", "Income", "Mushroom"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}
