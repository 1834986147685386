package experiments

import (
	"fmt"
	"strings"

	"logr/internal/mining"
	"logr/internal/workload"
)

// Table1 regenerates the paper's Table 1: summary statistics of the two
// query-log datasets after the parse→regularize→encode pipeline.
func Table1(s Scale) string {
	d := load(s)
	return FormatTable1([]Table1Row{
		{Name: "PocketData", Stats: d.pocket.Stats, Features: DistinctFeatures(pocketEntries(s), workload.EncodeOptions{})},
		{Name: "US bank", Stats: d.bank.Stats, Features: DistinctFeatures(bankEntries(s), workload.EncodeOptions{})},
	})
}

// DistinctFeatures counts the distinct features of a raw log with its
// constants kept: Table 1's "# Distinct features" row. It is an offline
// pass of its own — an encoder that keeps constants, whose codebook is
// exactly those features — because the serving encoder scrubs constants
// and keeps nothing per literal.
func DistinctFeatures(entries []workload.LogEntry, opts workload.EncodeOptions) int {
	opts.KeepConstants = true
	return workload.Encode(entries, opts).Stats.FeaturesNoConst
}

// Table2 regenerates the paper's Table 2: the alternative-application
// datasets (Income for Laserlight, Mushroom for MTV).
func Table2(s Scale) string {
	d := load(s)
	return FormatTable2([]Table2Row{
		DescribeCategorical("Income", "> 100,000?", d.income),
		DescribeCategorical("Mushroom", "Edibility", d.mushroom),
	})
}

// Table1Row is one dataset column of Table 1.
type Table1Row struct {
	Name  string
	Stats workload.PipelineStats
	// Features is the with-constants feature count (DistinctFeatures).
	Features int
}

// FormatTable1 renders rows in the paper's Table 1 layout.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	header := []string{"Statistics"}
	for _, r := range rows {
		header = append(header, r.Name)
	}
	w := columnWidths(header)
	line := func(cells ...string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&sb, "%-36s", c)
			} else {
				fmt.Fprintf(&sb, " %*s", w, c)
			}
		}
		sb.WriteByte('\n')
	}
	line(header...)
	row := func(label string, f func(Table1Row) string) {
		cells := []string{label}
		for _, r := range rows {
			cells = append(cells, f(r))
		}
		line(cells...)
	}
	row("# Queries", func(r Table1Row) string { return itoa(r.Stats.Queries) })
	row("# Distinct queries", func(r Table1Row) string { return itoa(r.Stats.DistinctQueries) })
	row("# Distinct queries (w/o const)", func(r Table1Row) string { return itoa(r.Stats.DistinctNoConst) })
	row("# Distinct conjunctive queries", func(r Table1Row) string { return itoa(r.Stats.DistinctConjunctive) })
	row("# Distinct re-writable queries", func(r Table1Row) string { return itoa(r.Stats.DistinctRewritable) })
	row("Max query multiplicity", func(r Table1Row) string { return itoa(r.Stats.MaxMultiplicity) })
	row("# Distinct features", func(r Table1Row) string { return itoa(r.Features) })
	row("# Distinct features (w/o const)", func(r Table1Row) string { return itoa(r.Stats.FeaturesNoConst) })
	row("Average features per query", func(r Table1Row) string {
		return fmt.Sprintf("%.2f", r.Stats.AvgFeaturesPerQuery)
	})
	row("# Stored procedures (skipped)", func(r Table1Row) string { return itoa(r.Stats.StoredProcedures) })
	row("# Unparseable (skipped)", func(r Table1Row) string { return itoa(r.Stats.Unparseable) })
	return sb.String()
}

// Table2Row is one dataset column of Table 2.
type Table2Row struct {
	Name            string
	DistinctTuples  int
	FeaturesPerRow  int
	DistinctFeats   int
	BinaryAttribute string
}

// DescribeCategorical derives a Table2Row from a generated dataset.
func DescribeCategorical(name, binaryAttr string, ds mining.CategoricalDataset) Table2Row {
	return Table2Row{
		Name:            name,
		DistinctTuples:  ds.Data.Distinct(),
		FeaturesPerRow:  len(ds.Groups),
		DistinctFeats:   ds.Data.UsedFeatures(),
		BinaryAttribute: binaryAttr,
	}
}

// FormatTable2 renders rows in the paper's Table 2 layout.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	header := []string{"Statistics"}
	for _, r := range rows {
		header = append(header, r.Name)
	}
	w := columnWidths(header)
	line := func(cells ...string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&sb, "%-32s", c)
			} else {
				fmt.Fprintf(&sb, " %*s", w, c)
			}
		}
		sb.WriteByte('\n')
	}
	line(header...)
	cell := func(f func(Table2Row) string) []string {
		out := make([]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, f(r))
		}
		return out
	}
	line(append([]string{"# Distinct data tuples"}, cell(func(r Table2Row) string { return itoa(r.DistinctTuples) })...)...)
	line(append([]string{"# Features per tuple"}, cell(func(r Table2Row) string { return itoa(r.FeaturesPerRow) })...)...)
	line(append([]string{"# Distinct features"}, cell(func(r Table2Row) string { return itoa(r.DistinctFeats) })...)...)
	line(append([]string{"Binary classification feature"}, cell(func(r Table2Row) string { return r.BinaryAttribute })...)...)
	return sb.String()
}

func columnWidths(header []string) int {
	w := 12
	for _, h := range header[1:] {
		if len(h) > w {
			w = len(h)
		}
	}
	return w
}
