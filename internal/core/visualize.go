package core

import (
	"fmt"
	"sort"
	"strings"

	"logr/internal/feature"
)

// Visualization (Section 2.3.2, Figure 1a, Appendix E): a naive (mixture)
// encoding is rendered as one pseudo-query per cluster with every feature
// annotated by its marginal. Shading in the paper's figures becomes a
// bracketed probability plus a block-glyph intensity bar here, so the
// output stays terminal-friendly.

// VisualizeOptions control rendering.
type VisualizeOptions struct {
	// MinMarginal hides features whose marginal falls below it (the paper's
	// figures omit features "with marginal too small"). Default 0.05.
	MinMarginal float64
	// MaxFeaturesPerClause truncates very wide clauses. 0 = unlimited.
	MaxFeaturesPerClause int
}

func (o VisualizeOptions) withDefaults() VisualizeOptions {
	if o.MinMarginal == 0 {
		o.MinMarginal = 0.05
	}
	return o
}

// Visualize renders a mixture encoding against its codebook.
func Visualize(m Mixture, book *feature.Codebook, opts VisualizeOptions) string {
	opts = opts.withDefaults()
	var sb strings.Builder
	for i, c := range m.Components {
		fmt.Fprintf(&sb, "-- cluster %d: weight %.1f%%, %d queries, verbosity %d\n",
			i+1, m.Weight(i)*100, c.Count, c.Verbosity())
		sb.WriteString(visualizeNaive(c, book, opts))
		if i < len(m.Components)-1 {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// VisualizeNaive renders a single naive encoding.
func VisualizeNaive(e Naive, book *feature.Codebook, opts VisualizeOptions) string {
	return visualizeNaive(e, book, opts.withDefaults())
}

func visualizeNaive(e Naive, book *feature.Codebook, opts VisualizeOptions) string {
	var sb strings.Builder
	for _, c := range clauses(e, book, opts) {
		fmt.Fprintf(&sb, "%-8s ", c.name)
		for i, en := range c.entries {
			if i > 0 {
				sb.WriteString("\n         ")
			}
			fmt.Fprintf(&sb, "%s %.2f  %s", shade(en.p), en.p, en.text)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// clause is one rendered clause of a cluster: its keyword and the features
// shown under it.
type clause struct {
	name    string
	entries []clauseEntry
}

type clauseEntry struct {
	text string
	p    float64
}

// clauses groups the encoding's features with marginal ≥ opts.MinMarginal
// by clause, in SQL order, skipping empty clauses. Each clause lists its
// features by descending marginal (ties by text), capped at
// opts.MaxFeaturesPerClause.
func clauses(e Naive, book *feature.Codebook, opts VisualizeOptions) []clause {
	byKind := map[feature.Kind][]clauseEntry{}
	for j, i := range e.Feat {
		p := e.marginal(j)
		if int(i) >= book.Size() || p < opts.MinMarginal {
			continue
		}
		f := book.Feature(int(i))
		byKind[f.Kind] = append(byKind[f.Kind], clauseEntry{f.Text, p})
	}
	var out []clause
	for _, k := range []struct {
		kind feature.Kind
		name string
	}{
		{feature.SelectKind, "SELECT"},
		{feature.FromKind, "FROM"},
		{feature.WhereKind, "WHERE"},
		{feature.GroupByKind, "GROUP BY"},
		{feature.OrderByKind, "ORDER BY"},
		{feature.AggKind, "AGG"},
	} {
		entries := byKind[k.kind]
		if len(entries) == 0 {
			continue
		}
		sort.Slice(entries, func(a, b int) bool {
			if entries[a].p != entries[b].p {
				return entries[a].p > entries[b].p
			}
			return entries[a].text < entries[b].text
		})
		if opts.MaxFeaturesPerClause > 0 && len(entries) > opts.MaxFeaturesPerClause {
			entries = entries[:opts.MaxFeaturesPerClause]
		}
		out = append(out, clause{k.name, entries})
	}
	return out
}

// shade maps a marginal to a block-glyph intensity, the text analogue of
// the paper's shading.
func shade(p float64) string {
	switch {
	case p >= 0.95:
		return "█"
	case p >= 0.66:
		return "▓"
	case p >= 0.33:
		return "▒"
	default:
		return "░"
	}
}
