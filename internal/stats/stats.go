// Package stats assembles and renders the dataset-summary tables of the
// paper's evaluation (Table 1 for the query logs, Table 2 for the
// alternative-application datasets).
package stats

import (
	"fmt"
	"strings"

	"logr/internal/workload"
)

// Table1Row is one dataset column of Table 1.
type Table1Row struct {
	Name  string
	Stats workload.PipelineStats
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
	get := func(f func(workload.PipelineStats) string) []string {
		out := make([]string, 0, len(rows)+1)
		for _, r := range rows {
			out = append(out, f(r.Stats))
		}
		return out
	}
	row := func(label string, f func(workload.PipelineStats) string) {
		line(append([]string{label}, get(f)...)...)
	}
	row("# Queries", func(s workload.PipelineStats) string { return itoa(s.Queries) })
	row("# Distinct queries", func(s workload.PipelineStats) string { return itoa(s.DistinctQueries) })
	row("# Distinct queries (w/o const)", func(s workload.PipelineStats) string { return itoa(s.DistinctNoConst) })
	row("# Distinct conjunctive queries", func(s workload.PipelineStats) string { return itoa(s.DistinctConjunctive) })
	row("# Distinct re-writable queries", func(s workload.PipelineStats) string { return itoa(s.DistinctRewritable) })
	row("Max query multiplicity", func(s workload.PipelineStats) string { return itoa(s.MaxMultiplicity) })
	row("# Distinct features", func(s workload.PipelineStats) string { return itoa(s.Features) })
	row("# Distinct features (w/o const)", func(s workload.PipelineStats) string { return itoa(s.FeaturesNoConst) })
	row("Average features per query", func(s workload.PipelineStats) string {
		return fmt.Sprintf("%.2f", s.AvgFeaturesPerQuery)
	})
	row("# Stored procedures (skipped)", func(s workload.PipelineStats) string { return itoa(s.StoredProcedures) })
	row("# Unparseable (skipped)", func(s workload.PipelineStats) string { return itoa(s.Unparseable) })
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
func DescribeCategorical(name, binaryAttr string, ds workload.CategoricalDataset) Table2Row {
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

func itoa(i int) string { return fmt.Sprintf("%d", i) }

func columnWidths(header []string) int {
	w := 12
	for _, h := range header[1:] {
		if len(h) > w {
			w = len(h)
		}
	}
	return w
}
