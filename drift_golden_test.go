package logr_test

import (
	"strconv"
	"testing"

	"logr"
	"logr/internal/workload"
)

// TestDriftReportsGolden pins Summary.CheckDrift and Workload.DriftBetween
// at full float64 precision on the pocket and injected-workload fixtures of
// TestDriftBetweenSegments. A change to the detector's sampler or scorer
// that moves any bit of a report's Score or NoveltyRate moves a line.
func TestDriftReportsGolden(t *testing.T) {
	base := pocketEntries(4000, 200, 11)
	s, err := logr.FromEntries(base).Compress(logr.CompressOptions{Clusters: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var attack []logr.Entry
	for _, e := range workload.InjectDrift(13, 15, 220) {
		attack = append(attack, logr.Entry{SQL: e.SQL, Count: e.Count})
	}
	mixed := append(pocketEntries(2000, 200, 11), attack...)

	w := driftSegments(t)
	opts := logr.CompressOptions{Clusters: 6, Seed: 1}
	calm, err := w.DriftBetween(0, 3, 3, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := w.DriftBetween(0, 4, 4, 5, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		rep  logr.DriftReport
		want string
	}{
		{"check-self", s.CheckDrift(base), "-0.05804180621002253 0 false"},
		{"check-attack", s.CheckDrift(attack), "40.00000000000001 1 true"},
		{"check-mixed", s.CheckDrift(mixed), "3.9920513918271254 0.0990990990990991 true"},
		{"between-calm", calm, "-0.0906209954956001 0 false"},
		{"between-hot", hot, "4.257116590782205 0.0990990990990991 true"},
	} {
		got := strconv.FormatFloat(tc.rep.Score, 'g', -1, 64) + " " +
			strconv.FormatFloat(tc.rep.NoveltyRate, 'g', -1, 64) + " " + strconv.FormatBool(tc.rep.Alert)
		if got != tc.want {
			t.Errorf("%s: score novelty alert = %s, want %s", tc.name, got, tc.want)
		}
	}
}
