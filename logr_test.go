package logr

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"logr/internal/cluster"
)

func toyEntries() []Entry {
	return []Entry{
		{SQL: "SELECT _id FROM messages WHERE status = ?", Count: 500},
		{SQL: "SELECT _id, _time FROM messages WHERE status = ? AND sms_type = ?", Count: 300},
		{SQL: "SELECT _time FROM messages WHERE sms_type = ?", Count: 100},
		{SQL: "SELECT name FROM contacts WHERE chat_id = ?", Count: 80},
		{SQL: "SELECT name, circle_id FROM contacts WHERE circle_id = ?", Count: 20},
	}
}

func TestWorkloadStats(t *testing.T) {
	w := FromEntries(toyEntries())
	s := w.Stats()
	if s.Queries != 1000 {
		t.Errorf("Queries = %d", s.Queries)
	}
	if s.DistinctQueries != 5 || s.DistinctNoConst != 5 {
		t.Errorf("distinct = %d / %d", s.DistinctQueries, s.DistinctNoConst)
	}
	if s.DistinctConjunctive != 5 || s.DistinctRewritable != 5 {
		t.Errorf("conjunctive/rewritable = %d / %d", s.DistinctConjunctive, s.DistinctRewritable)
	}
	if s.MaxMultiplicity != 500 {
		t.Errorf("MaxMultiplicity = %d", s.MaxMultiplicity)
	}
}

func TestCompressAndEstimate(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters() < 1 || s.Clusters() > 2 {
		t.Fatalf("Clusters = %d", s.Clusters())
	}
	// the messages/status predicate appears in 800 of 1000 queries
	got, err := s.EstimateCount("SELECT _id FROM messages WHERE status = ?")
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Count("SELECT _id FROM messages WHERE status = ?")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-float64(want)) > 0.35*float64(want) {
		t.Errorf("estimate %g too far from true %d", got, want)
	}
	// single-feature probe: status predicate alone
	freq, err := s.EstimateFrequency("SELECT * FROM messages WHERE status = ?")
	if err != nil {
		t.Fatal(err)
	}
	if freq < 0.5 || freq > 1 {
		t.Errorf("frequency = %g, want ≈0.8", freq)
	}
}

func TestEstimateUnknownPatternIsZero(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	freq, err := s.EstimateFrequency("SELECT nope FROM never_seen WHERE ghost = ?")
	if err != nil {
		t.Fatal(err)
	}
	if freq != 0 {
		t.Errorf("unknown pattern frequency = %g", freq)
	}
}

func TestCountRejectsUnknown(t *testing.T) {
	w := FromEntries(toyEntries())
	if _, err := w.Count("SELECT ghost FROM nowhere"); err == nil {
		t.Error("expected error for unknown features")
	}
}

func TestAutoSweepMeetsTarget(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{TargetError: 0.2, MaxClusters: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Error() > 0.2 && s.Clusters() < 8 {
		t.Errorf("sweep stopped early: err=%g K=%d", s.Error(), s.Clusters())
	}
}

func TestMoreClustersLowerError(t *testing.T) {
	w := FromEntries(toyEntries())
	s1, err := w.Compress(CompressOptions{Clusters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := w.Compress(CompressOptions{Clusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Error() > s1.Error()+1e-9 {
		t.Errorf("K=3 error %g above K=1 error %g", s3.Error(), s1.Error())
	}
	if s3.TotalVerbosity() < s1.TotalVerbosity() {
		t.Errorf("verbosity should not shrink with clusters: %d vs %d",
			s3.TotalVerbosity(), s1.TotalVerbosity())
	}
}

// TestMethodsAndMetrics pins each accepted method to its distance — k-means
// runs Lloyd's algorithm over Euclidean distance, and hierarchical is the
// average-linkage dendrogram under Hamming distance, cut at K — and
// refuses every other method, spectral clustering included, naming the
// accepted ones.
func TestMethodsAndMetrics(t *testing.T) {
	w := FromEntries(toyEntries())
	for _, m := range []string{"", "kmeans", "KMeans", "hierarchical"} {
		if _, err := w.Compress(CompressOptions{Clusters: 2, Method: m, Seed: 1}); err != nil {
			t.Errorf("%q: %v", m, err)
		}
	}
	s, err := w.Compress(CompressOptions{Clusters: 2, Method: "hierarchical", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts := w.snapshot().Log.Binary()
	want := cluster.HierarchicalBinaryP(pts, cluster.BinaryMetricFunc(cluster.Hamming, 0), 1).Cut(2)
	if !reflect.DeepEqual(s.c.Assignment, want) {
		t.Errorf("hierarchical assignment %v, want the Hamming average-linkage cut %v", s.c.Assignment, want)
	}
	for _, m := range []string{"spectral", "bogus"} {
		_, err := w.Compress(CompressOptions{Clusters: 2, Method: m, Seed: 1})
		if err == nil {
			t.Fatalf("%q: Compress accepted it", m)
		}
		if !strings.Contains(err.Error(), "kmeans") || !strings.Contains(err.Error(), "hierarchical") {
			t.Errorf("%q: error %q does not name the accepted methods", m, err)
		}
	}
}

func TestVisualize(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	viz := s.Visualize()
	for _, want := range []string{"cluster 1", "SELECT", "FROM", "WHERE"} {
		if !strings.Contains(viz, want) {
			t.Errorf("visualization missing %q:\n%s", want, viz)
		}
	}
}

func TestSuggestIndexes(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sugg := s.SuggestIndexes(0.1)
	if len(sugg) == 0 {
		t.Fatal("no index suggestions")
	}
	if sugg[0].Predicate != "status = ?" {
		t.Errorf("top suggestion = %q, want status predicate", sugg[0].Predicate)
	}
	if sugg[0].Table != "messages" {
		t.Errorf("attributed table = %q", sugg[0].Table)
	}
}

func TestSuggestViews(t *testing.T) {
	entries := append(toyEntries(),
		Entry{SQL: "SELECT m.text FROM messages m JOIN conversations c ON m.conversation_id = c.conversation_id WHERE m.status = ?", Count: 400})
	w := FromEntries(entries)
	s, err := w.Compress(CompressOptions{Clusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	views := s.SuggestViews(0.05)
	found := false
	for _, v := range views {
		joined := strings.Join(v.Tables, "+")
		if strings.Contains(joined, "messages") && strings.Contains(joined, "conversations") {
			found = true
		}
	}
	if !found {
		t.Errorf("join pair not suggested: %v", views)
	}
}

func TestTopCorrelations(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	corrs := s.TopCorrelations(w, 5)
	if len(corrs) == 0 {
		t.Fatal("no correlations")
	}
	for _, c := range corrs {
		if c.Query == "" {
			t.Error("correlation with empty query")
		}
	}
}

func TestDriftDetection(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// same workload → no alert
	calm := s.CheckDrift(toyEntries())
	if calm.Alert {
		t.Errorf("false alarm on baseline workload: %+v", calm)
	}
	// injected exfiltration queries → alert via novelty
	attack := []Entry{
		{SQL: "SELECT ssn_hash, full_name FROM customers WHERE risk_score > ?", Count: 50},
	}
	hot := s.CheckDrift(attack)
	if !hot.Alert {
		t.Errorf("missed drift: %+v", hot)
	}
	if hot.NoveltyRate < 0.9 {
		t.Errorf("novelty = %g, want ≈1", hot.NoveltyRate)
	}
}

// TestCheckDriftEmptyBaseline: the summary of an empty workload has no
// components; every window query scores as novel instead of panicking, and
// an empty window still reports nothing.
func TestCheckDriftEmptyBaseline(t *testing.T) {
	s, err := FromEntries(nil).Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.CheckDrift(toyEntries())
	if rep.NoveltyRate != 1 || !rep.Alert {
		t.Errorf("window against an empty baseline = %+v, want novelty 1 and an alert", rep)
	}
	if rep := s.CheckDrift(nil); rep != (DriftReport{}) {
		t.Errorf("empty window = %+v, want the zero report", rep)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	raw := "SELECT a FROM t WHERE x = 1\nSELECT a FROM t WHERE x = 2\nSELECT b FROM u\n"
	w, err := Load(bytes.NewBufferString(raw))
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Queries != 3 {
		t.Errorf("Queries = %d", s.Queries)
	}
	// constants differ but scrub collapses them
	if s.DistinctNoConst != 2 {
		t.Errorf("DistinctNoConst = %d, want 2", s.DistinctNoConst)
	}

	compact := "5\tSELECT a FROM t WHERE x = ?\n1\tSELECT b FROM u\n"
	w2, err := LoadCompact(bytes.NewBufferString(compact))
	if err != nil {
		t.Fatal(err)
	}
	if w2.Stats().Queries != 6 {
		t.Errorf("compact Queries = %d", w2.Stats().Queries)
	}
}

func TestSummarySaveLoad(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Clusters() != s.Clusters() || restored.TotalVerbosity() != s.TotalVerbosity() {
		t.Fatalf("restored shape differs: K=%d verb=%d", restored.Clusters(), restored.TotalVerbosity())
	}
	probe := "SELECT * FROM messages WHERE status = ?"
	a, err := s.EstimateFrequency(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.EstimateFrequency(probe)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("estimates diverge after round trip: %g vs %g", a, b)
	}
	// Error is unknown without ground truth
	if !math.IsNaN(restored.Error()) {
		t.Errorf("restored error = %g, want NaN", restored.Error())
	}
	// applications still work from the artifact alone
	if len(restored.SuggestIndexes(0.1)) == 0 {
		t.Error("restored summary yields no index suggestions")
	}
	if restored.Visualize() == "" {
		t.Error("restored summary does not visualize")
	}
}

func TestAppendExtendsWorkload(t *testing.T) {
	w := FromEntries(toyEntries()[:2])
	before := w.Stats()
	w.Append([]Entry{
		{SQL: "SELECT job_name FROM batch_jobs WHERE status = ?", Count: 50},
		{SQL: "SELECT _id FROM messages WHERE status = ?", Count: 25}, // dup of entry 1
	})
	after := w.Stats()
	if after.Queries != before.Queries+75 {
		t.Errorf("Queries = %d, want %d", after.Queries, before.Queries+75)
	}
	if after.DistinctNoConst != before.DistinctNoConst+1 {
		t.Errorf("DistinctNoConst = %d, want +1", after.DistinctNoConst)
	}
	if after.FeaturesNoConst <= before.FeaturesNoConst {
		t.Error("codebook did not grow with new features")
	}
	// the duplicate folded into the existing distinct query; Γ_b counts
	// every query containing the pattern (entries 1, 2 and the appended
	// duplicates: 500 + 300 + 25)
	n, err := w.Count("SELECT _id FROM messages WHERE status = ?")
	if err != nil {
		t.Fatal(err)
	}
	if n != 825 {
		t.Errorf("Count = %d, want 825", n)
	}
	// compress still works over the extended universe
	s, err := w.Compress(CompressOptions{Clusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters() < 1 {
		t.Error("compression failed after append")
	}
}

func TestExtendedSchemeOption(t *testing.T) {
	entries := []Entry{
		{SQL: "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a DESC", Count: 10},
	}
	aligon := FromEntries(entries)
	extended := FromEntriesWithOptions(entries, Options{ExtendedScheme: true})
	if extended.Stats().FeaturesNoConst <= aligon.Stats().FeaturesNoConst {
		t.Errorf("extended scheme should extract more features: %d vs %d",
			extended.Stats().FeaturesNoConst, aligon.Stats().FeaturesNoConst)
	}
}

func TestKeepConstantsOption(t *testing.T) {
	entries := []Entry{
		{SQL: "SELECT a FROM t WHERE x = 1", Count: 5},
		{SQL: "SELECT a FROM t WHERE x = 2", Count: 5},
	}
	scrubbed := FromEntries(entries)
	kept := FromEntriesWithOptions(entries, Options{KeepConstants: true})
	if scrubbed.Stats().DistinctNoConst != 1 {
		t.Errorf("scrubbed distinct = %d, want 1", scrubbed.Stats().DistinctNoConst)
	}
	if kept.Stats().DistinctNoConst != 2 {
		t.Errorf("kept distinct = %d, want 2", kept.Stats().DistinctNoConst)
	}
}

func TestVisualizeHTML(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := s.VisualizeHTML()
	for _, want := range []string{"<!DOCTYPE html>", "cluster 1", "SELECT", "messages", "background:"} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// marginals escape correctly: predicate text contains no raw <
	if strings.Contains(out, "<script") {
		t.Error("unexpected script tag")
	}
}

func TestPlanIndexes(t *testing.T) {
	w := FromEntries(toyEntries())
	s, err := w.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := s.PlanIndexes(2, CostModel{})
	if len(plan.Predicates) == 0 {
		t.Fatal("empty plan")
	}
	if plan.Predicates[0] != "status = ?" {
		t.Errorf("first index = %q", plan.Predicates[0])
	}
	if plan.CostAfter >= plan.CostBefore {
		t.Errorf("cost did not drop: %g -> %g", plan.CostBefore, plan.CostAfter)
	}
}
