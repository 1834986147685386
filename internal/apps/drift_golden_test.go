package apps

import (
	"strconv"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/workload"
)

// TestDriftGolden pins the drift detector's calibration and reports at full
// float64 precision on a K = 8 summary of a USBank log: against the log
// itself, against a window of fresh bank traffic plus an injected workload
// restricted to the baseline's universe (queries with later features are
// charged as extra novel queries), and against the same window on the grown
// universe. A change to the detector's sampler or scorer that moves any bit
// of calibratedNLL, Score or NoveltyRate moves a line.
func TestDriftGolden(t *testing.T) {
	enc := workload.NewEncoder(workload.EncodeOptions{Parallelism: 1})
	enc.AddBatch(workload.USBank(workload.USBankConfig{TotalQueries: 20000, DistinctTarget: 300, Seed: 1}))
	base := enc.Result()
	c, err := core.Compress(base.Log, core.CompressOptions{K: 8, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	enc.AddBatch(workload.USBank(workload.USBankConfig{TotalQueries: 2000, DistinctTarget: 300, Seed: 1}))
	enc.AddBatch(workload.InjectDrift(13, 15, 220))
	win := enc.Result().Log.DeltaSince(base.Counts())
	if win.Universe() <= base.Log.Universe() {
		t.Fatalf("window universe %d does not grow the baseline's %d", win.Universe(), base.Log.Universe())
	}

	// the window on the baseline's universe: queries carrying a grown
	// feature cannot be encoded there and count as extra novel queries
	n := base.Log.Universe()
	shrunk, extra := core.NewLog(n), 0
	for i := 0; i < win.Distinct(); i++ {
		idx := win.Vector(i).Indices()
		if len(idx) > 0 && idx[len(idx)-1] >= n {
			extra += win.Multiplicity(i)
			continue
		}
		shrunk.Add(bitvec.FromIndices(n, idx...), win.Multiplicity(i))
	}

	det := NewDriftDetector(c.Mixture)
	grown := NewDriftDetectorAt(c.Mixture, win.Universe())
	for _, tc := range []struct {
		name string
		det  *DriftDetector
		rep  DriftReport
		want string
	}{
		{"self", det, det.Check(base.Log, 0),
			"18.6060833345156 0.49590231119463013 0 false"},
		{"window", det, det.Check(shrunk, extra),
			"18.6060833345156 5.936449987003904 0.0990990990990991 true"},
		{"grown", grown, grown.Check(win, 0),
			"19.350536629065168 5.265771343265563 0.0990990990990991 true"},
	} {
		got := formatDrift(tc.det.calibratedNLL) + " " + formatDrift(tc.rep.Score) + " " +
			formatDrift(tc.rep.NoveltyRate) + " " + strconv.FormatBool(tc.rep.Alert)
		if got != tc.want {
			t.Errorf("%s: calibratedNLL score novelty alert = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func formatDrift(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
