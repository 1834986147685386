package apps

import (
	"sort"

	"logr/internal/core"
	"logr/internal/feature"
)

// What-if index selection (Section 2: index selection "typically repeatedly
// simulates database performance under different combinations of indexes,
// which in turn requires repeatedly estimating the frequency with which
// specific predicates appear in the workload"). This file is that
// simulation loop, driven entirely by the compressed summary.
//
// Cost model: a query answered with no usable index pays ScanCost; a query
// with at least one indexed predicate pays IndexCost; every chosen index
// adds MaintenanceCost per query in the workload (updates, cache pressure).
// The probability that a query has ≥ 1 indexed predicate is computed in
// closed form per mixture component under the naive independence
// assumption: P(∪ f∈I) = 1 − Π (1 − p_f).

// CostModel parameterizes the what-if simulation.
type CostModel struct {
	// ScanCost is the relative cost of answering a query without any
	// usable index. Default 1.
	ScanCost float64
	// IndexCost is the relative cost with an index. Default 0.1.
	IndexCost float64
	// MaintenanceCost is the per-query overhead each extra index imposes
	// on the whole workload. Default 0.002.
	MaintenanceCost float64
}

func (c CostModel) withDefaults() CostModel {
	if c.ScanCost == 0 {
		c.ScanCost = 1
	}
	if c.IndexCost == 0 {
		c.IndexCost = 0.1
	}
	if c.MaintenanceCost == 0 {
		c.MaintenanceCost = 0.002
	}
	return c
}

// IndexPlan is the outcome of greedy what-if selection.
type IndexPlan struct {
	// Predicates are the chosen index keys (WHERE-feature texts) in
	// selection order.
	Predicates []string
	// CostBefore and CostAfter are estimated workload costs (ScanCost
	// units × |L|).
	CostBefore float64
	CostAfter  float64
	// Steps records the estimated cost after each successive index.
	Steps []float64
}

// SelectIndexesWhatIf greedily picks up to budget indexes, each round
// choosing the predicate whose addition minimizes the estimated workload
// cost. All estimates come from the mixture encoding — the raw log is never
// consulted — exactly the repeated-simulation loop the paper motivates.
func SelectIndexesWhatIf(m core.Mixture, book *feature.Codebook, budget int, cm CostModel) IndexPlan {
	cm = cm.withDefaults()
	var whereFeats []int
	for i := 0; i < book.Size(); i++ {
		if book.Feature(i).Kind == feature.WhereKind {
			whereFeats = append(whereFeats, i)
		}
	}
	chosen := map[int]bool{}
	plan := IndexPlan{CostBefore: workloadCost(m, nil, cm)}
	cur := plan.CostBefore
	for len(plan.Predicates) < budget {
		best, bestCost := -1, cur
		for _, f := range whereFeats {
			if chosen[f] {
				continue
			}
			trial := append(keys(chosen), f)
			c := workloadCost(m, trial, cm)
			if c < bestCost-1e-12 {
				best, bestCost = f, c
			}
		}
		if best < 0 {
			break // no remaining index pays for its maintenance
		}
		chosen[best] = true
		cur = bestCost
		plan.Predicates = append(plan.Predicates, book.Feature(best).Text)
		plan.Steps = append(plan.Steps, cur)
	}
	plan.CostAfter = cur
	return plan
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// workloadCost estimates total cost (in ScanCost units × queries) of the
// workload under an index set, per component:
//
//	cost_i = |L_i| · [ P(hit)·IndexCost + (1−P(hit))·ScanCost ]
//	P(hit) = 1 − Π_{f ∈ indexes} (1 − p_f)
//
// plus MaintenanceCost · |L| per index.
func workloadCost(m core.Mixture, indexes []int, cm CostModel) float64 {
	total := 0.0
	for _, c := range m.Components {
		miss := 1.0
		for _, f := range indexes {
			miss *= 1 - c.Marginal(f)
		}
		hit := 1 - miss
		total += float64(c.Count) * (hit*cm.IndexCost + miss*cm.ScanCost)
	}
	total += float64(len(indexes)) * cm.MaintenanceCost * float64(m.Total)
	return total
}

// TrueWorkloadCost evaluates the same cost model against the uncompressed
// log (for validating the summary-driven simulation in tests and examples).
// indexes are feature indices; a query "hits" if it contains any of them.
func TrueWorkloadCost(l *core.Log, indexes []int, cm CostModel) float64 {
	cm = cm.withDefaults()
	total := 0.0
	for i := 0; i < l.Distinct(); i++ {
		v := l.Vector(i)
		hit := false
		for _, f := range indexes {
			if f < v.Len() && v.Get(f) {
				hit = true
				break
			}
		}
		cost := cm.ScanCost
		if hit {
			cost = cm.IndexCost
		}
		total += float64(l.Multiplicity(i)) * cost
	}
	total += float64(len(indexes)) * cm.MaintenanceCost * float64(l.Total())
	return total
}

// FeatureIndexByText finds a WHERE feature's index by its predicate text.
func FeatureIndexByText(book *feature.Codebook, text string) (int, bool) {
	return book.Lookup(feature.Feature{Kind: feature.WhereKind, Text: text})
}
