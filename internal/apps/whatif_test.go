package apps

import (
	"math"
	"testing"

	"logr/internal/cluster"
	"logr/internal/core"
)

func TestWhatIfSelectsDominantPredicate(t *testing.T) {
	l, book := buildWorkload(t, map[string]int{
		"SELECT _id FROM messages WHERE status = ?":   800,
		"SELECT name FROM contacts WHERE chat_id = ?": 150,
		"SELECT x FROM audit_log WHERE event_ts > ?":  50,
	})
	mix, _ := core.BuildNaiveMixture(l, cluster.Assignment{Labels: make([]int, l.Distinct()), K: 1})
	plan := SelectIndexesWhatIf(mix, book, 2, CostModel{})
	if len(plan.Predicates) == 0 {
		t.Fatal("no indexes selected")
	}
	if plan.Predicates[0] != "status = ?" {
		t.Errorf("first index = %q, want the dominant predicate", plan.Predicates[0])
	}
	if plan.CostAfter >= plan.CostBefore {
		t.Errorf("cost did not improve: %g -> %g", plan.CostBefore, plan.CostAfter)
	}
	// steps must be monotone decreasing
	prev := plan.CostBefore
	for i, s := range plan.Steps {
		if s >= prev {
			t.Errorf("step %d did not reduce cost: %g -> %g", i, prev, s)
		}
		prev = s
	}
}

func TestWhatIfStopsWhenMaintenanceDominates(t *testing.T) {
	l, book := buildWorkload(t, map[string]int{
		"SELECT _id FROM messages WHERE status = ?": 1000,
	})
	mix, _ := core.BuildNaiveMixture(l, cluster.Assignment{Labels: make([]int, l.Distinct()), K: 1})
	// absurd maintenance cost: no index is worth it
	plan := SelectIndexesWhatIf(mix, book, 5, CostModel{MaintenanceCost: 10})
	if len(plan.Predicates) != 0 {
		t.Errorf("selected %d indexes despite prohibitive maintenance", len(plan.Predicates))
	}
	if plan.CostAfter != plan.CostBefore {
		t.Errorf("cost changed without indexes: %g vs %g", plan.CostAfter, plan.CostBefore)
	}
}

func TestWhatIfEstimateTracksTruth(t *testing.T) {
	// On a well-partitioned summary the estimated cost should track the
	// true cost closely.
	l, book := buildWorkload(t, map[string]int{
		"SELECT _id FROM messages WHERE status = ?":   600,
		"SELECT name FROM contacts WHERE chat_id = ?": 400,
	})
	asg := cluster.KMeansBinary(l.Binary(), cluster.KMeansOptions{K: 2, Seed: 1, Restarts: 3})
	mix, _ := core.BuildNaiveMixture(l, asg)
	cm := CostModel{}.withDefaults()

	plan := SelectIndexesWhatIf(mix, book, 1, cm)
	if len(plan.Predicates) != 1 {
		t.Fatalf("plan = %v", plan.Predicates)
	}
	fi, ok := FeatureIndexByText(book, plan.Predicates[0])
	if !ok {
		t.Fatalf("chosen predicate %q not in codebook", plan.Predicates[0])
	}
	truth := TrueWorkloadCost(l, []int{fi}, cm)
	if math.Abs(plan.CostAfter-truth) > 0.05*truth {
		t.Errorf("estimated cost %g vs true %g", plan.CostAfter, truth)
	}
}

func TestTrueWorkloadCostBounds(t *testing.T) {
	l, _ := buildWorkload(t, map[string]int{
		"SELECT _id FROM messages WHERE status = ?": 100,
	})
	cm := CostModel{}.withDefaults()
	noIdx := TrueWorkloadCost(l, nil, cm)
	if noIdx != 100*cm.ScanCost {
		t.Errorf("no-index cost = %g", noIdx)
	}
}
