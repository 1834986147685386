package apps

import (
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
	"logr/internal/core"
	"logr/internal/feature"
	"logr/internal/regularize"
	"logr/internal/sqlparser"
)

// buildWorkload encodes a handful of queries and returns log + codebook.
func buildWorkload(t *testing.T, entries map[string]int) (*core.Log, *feature.Codebook) {
	t.Helper()
	book := feature.NewCodebook(feature.AligonScheme)
	type enc struct {
		idx   []int
		count int
	}
	var encs []enc
	for sql, count := range entries {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		r := regularize.Regularize(stmt, regularize.DefaultOptions)
		set := map[int]bool{}
		for _, blk := range r.Blocks {
			for _, f := range book.Extract(blk) {
				set[f] = true
			}
		}
		var idx []int
		for f := range set {
			idx = append(idx, f)
		}
		encs = append(encs, enc{idx: idx, count: count})
	}
	l := core.NewLog(book.Size())
	for _, e := range encs {
		l.Add(book.Vector(e.idx), e.count)
	}
	return l, book
}

func TestSuggestIndexes(t *testing.T) {
	l, book := buildWorkload(t, map[string]int{
		"SELECT _id FROM messages WHERE status = ?":                800,
		"SELECT _time FROM messages WHERE status = ? AND type = ?": 100,
		"SELECT name FROM contacts WHERE chat_id = ?":              100,
	})
	mix, _ := core.BuildNaiveMixture(l, cluster.Assignment{Labels: make([]int, l.Distinct()), K: 1})
	sugg := SuggestIndexes(mix, book, 0.05)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	if sugg[0].Predicate != "status = ?" {
		t.Errorf("top predicate = %q", sugg[0].Predicate)
	}
	if sugg[0].Frequency < 0.8 {
		t.Errorf("status frequency = %g, want ≥ 0.8", sugg[0].Frequency)
	}
	if sugg[0].Table != "messages" {
		t.Errorf("table = %q", sugg[0].Table)
	}
}

func TestSuggestViewsAvoidsPhantomJoins(t *testing.T) {
	// two disjoint workloads: messages+conversations joined, contacts alone.
	l, book := buildWorkload(t, map[string]int{
		"SELECT m.text FROM messages m JOIN conversations c ON m.cid = c.cid WHERE m.status = ?": 500,
		"SELECT name FROM contacts WHERE chat_id = ?":                                            500,
	})
	// true 2-cluster split
	asg := cluster.KMeansBinary(l.Binary(), cluster.KMeansOptions{K: 2, Seed: 1, Restarts: 3})
	mix, _ := core.BuildNaiveMixture(l, asg)
	views := SuggestViews(mix, book, 0.05)
	for _, v := range views {
		has := map[string]bool{}
		for _, tb := range v.Tables {
			has[tb] = true
		}
		if has["contacts"] && (has["messages"] || has["conversations"]) {
			t.Errorf("phantom cross-workload join suggested: %v (freq %g)", v.Tables, v.Frequency)
		}
	}
	// the genuine join must surface
	found := false
	for _, v := range views {
		has := map[string]bool{}
		for _, tb := range v.Tables {
			has[tb] = true
		}
		if has["messages"] && has["conversations"] {
			found = true
			if v.Frequency < 0.4 {
				t.Errorf("genuine join frequency = %g", v.Frequency)
			}
		}
	}
	if !found {
		t.Error("genuine join missing from suggestions")
	}
}

func TestDriftDetectorCalmOnBaseline(t *testing.T) {
	l, _ := buildWorkload(t, map[string]int{
		"SELECT _id FROM messages WHERE status = ?":   700,
		"SELECT name FROM contacts WHERE chat_id = ?": 300,
	})
	asg := cluster.KMeansBinary(l.Binary(), cluster.KMeansOptions{K: 2, Seed: 1})
	mix, _ := core.BuildNaiveMixture(l, asg)
	det := NewDriftDetector(mix)
	rep := det.Check(l, 0)
	if rep.Alert {
		t.Errorf("false alarm on baseline: %+v", rep)
	}
	if rep.NoveltyRate != 0 {
		t.Errorf("novelty on baseline = %g", rep.NoveltyRate)
	}
}

func TestDriftDetectorFlagsInjection(t *testing.T) {
	l, _ := buildWorkload(t, map[string]int{
		"SELECT _id FROM messages WHERE status = ?": 1000,
	})
	mix, _ := core.BuildNaiveMixture(l, cluster.Assignment{Labels: make([]int, l.Distinct()), K: 1})
	det := NewDriftDetector(mix)

	// a window of queries the baseline assigns (near-)zero probability:
	// same universe, but an unseen feature combination
	window := core.NewLog(l.Universe())
	v := bitvec.New(l.Universe())
	// set no features: the empty query differs from every baseline query
	window.Add(v, 100)
	rep := det.Check(window, 0)
	if !rep.Alert {
		t.Errorf("injection not flagged: %+v", rep)
	}
}

// TestDriftDetectorAtGrownUniverse: a window encoded after the baseline
// carries later-registered features; the lifted detector scores those
// queries as novel instead of panicking on the universe mismatch.
func TestDriftDetectorAtGrownUniverse(t *testing.T) {
	l, _ := buildWorkload(t, map[string]int{
		"SELECT _id FROM messages WHERE status = ?": 1000,
	})
	mix, _ := core.BuildNaiveMixture(l, cluster.Assignment{Labels: make([]int, l.Distinct()), K: 1})
	grown := l.Universe() + 3
	det := NewDriftDetectorAt(mix, grown)

	window := core.NewLog(grown)
	// baseline-shaped query, padded universe: stays unremarkable
	window.Add(l.Vector(0).Grow(grown), 90)
	// query on a post-baseline feature: provably unseen, scores novel
	post := bitvec.New(grown)
	post.Set(grown - 1)
	window.Add(post, 10)
	rep := det.Check(window, 0)
	if rep.NoveltyRate != 0.1 {
		t.Errorf("novelty = %g, want 0.1", rep.NoveltyRate)
	}
}

// TestDriftDetectorEmptyBaseline: a baseline with no components has
// nothing to calibrate against, so every window query scores as novel and
// an empty window still reports nothing.
func TestDriftDetectorEmptyBaseline(t *testing.T) {
	det := NewDriftDetector(core.Mixture{Universe: 4})
	window := core.NewLog(4)
	window.Add(bitvec.FromIndices(4, 1, 2), 3)
	rep := det.Check(window, 2)
	if rep.NoveltyRate != 1 || !rep.Alert {
		t.Errorf("window against an empty baseline = %+v, want novelty 1 and an alert", rep)
	}
	if rep := det.Check(core.NewLog(4), 0); rep != (DriftReport{}) {
		t.Errorf("empty window = %+v, want the zero report", rep)
	}
}
