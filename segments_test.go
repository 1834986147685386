package logr_test

// Tests for the segmented store's public surface: Seal/Segments,
// CompressRange's summary algebra, retention, windowed drift, and the
// oracle guarantee that a single-segment store compresses bit-identically
// to the monolithic path. Run with -race to exercise the concurrent
// Append/Seal/CompressRange paths.

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"logr"
	"logr/internal/workload"
)

// segmentedPocket builds a workload from pocket-style traffic sealed into
// nseg equal segments.
func segmentedPocket(t *testing.T, total, distinct, nseg int, seed int64) (*logr.Workload, []logr.Entry) {
	t.Helper()
	entries := pocketEntries(total, distinct, seed)
	w := logr.FromEntries(nil)
	per := (len(entries) + nseg - 1) / nseg
	for lo := 0; lo < len(entries); lo += per {
		hi := min(lo+per, len(entries))
		w.Append(entries[lo:hi])
		if _, ok := w.Seal(); !ok {
			t.Fatal("seal failed on a non-empty buffer")
		}
	}
	if got := len(w.Segments()); got != (len(entries)+per-1)/per {
		t.Fatalf("expected %d segments, got %d", (len(entries)+per-1)/per, got)
	}
	return w, entries
}

// TestSingleSegmentBitIdenticalToCompress is the oracle acceptance test:
// sealing everything into one segment and CompressRange-ing it must produce
// byte-for-byte the same summary artifact as Compress on the unsegmented
// workload, for a fixed seed.
func TestSingleSegmentBitIdenticalToCompress(t *testing.T) {
	entries := pocketEntries(4000, 200, 3)
	opts := logr.CompressOptions{Clusters: 6, Seed: 1}

	mono := logr.FromEntries(entries)
	sMono, err := mono.Compress(opts)
	if err != nil {
		t.Fatal(err)
	}

	seg := logr.FromEntries(entries)
	if _, ok := seg.Seal(); !ok {
		t.Fatal("seal failed")
	}
	sSeg, err := seg.CompressRange(0, 1, opts)
	if err != nil {
		t.Fatal(err)
	}

	if sSeg.Error() != sMono.Error() {
		t.Fatalf("errors differ: %v vs %v", sSeg.Error(), sMono.Error())
	}
	if sSeg.Clusters() != sMono.Clusters() || sSeg.TotalVerbosity() != sMono.TotalVerbosity() {
		t.Fatalf("shapes differ: K %d/%d verbosity %d/%d",
			sSeg.Clusters(), sMono.Clusters(), sSeg.TotalVerbosity(), sMono.TotalVerbosity())
	}
	var a, b bytes.Buffer
	if err := sMono.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := sSeg.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("single-segment summary artifact is not bit-identical to Compress's")
	}
}

// TestCompressRangeOverSegments: a windowed summary over several segments
// stays queryable, respects the component budget, and lands close to the
// full compression's fidelity.
func TestCompressRangeOverSegments(t *testing.T) {
	w, entries := segmentedPocket(t, 8000, 250, 4, 5)
	opts := logr.CompressOptions{Clusters: 6, Seed: 1}

	s, err := w.CompressRange(0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters() > 6 {
		t.Fatalf("range summary has %d clusters, budget 6", s.Clusters())
	}
	// estimates work and stay in range
	freq, err := s.EstimateFrequency("SELECT _id FROM messages WHERE status = ?")
	if err != nil {
		t.Fatal(err)
	}
	if freq < 0 || freq > 1 {
		t.Fatalf("frequency = %v", freq)
	}
	// fidelity: close to the full compression's error
	full, err := logr.FromEntries(entries).Compress(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Error() > full.Error()*1.5+0.5 {
		t.Fatalf("range error %v way above full compression %v", s.Error(), full.Error())
	}
	// epoch covers the whole stream
	if s.Epoch().TotalQueries != full.Epoch().TotalQueries {
		t.Fatalf("range epoch %+v vs full %+v", s.Epoch(), full.Epoch())
	}

	// sub-window: later half only
	tail, err := w.CompressRange(2, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	segs := w.Segments()
	want := segs[2].Queries + segs[3].Queries
	if got := tail.Epoch().TotalQueries; got != segs[3].Epoch.TotalQueries {
		t.Fatalf("tail epoch %d, want %d", got, segs[3].Epoch.TotalQueries)
	}
	if c, err := tail.EstimateCount("SELECT _id FROM messages"); err != nil || c > float64(want)+1 {
		t.Fatalf("tail estimate %v over %d window queries (err %v)", c, want, err)
	}
}

// TestRangeSummarySaveLoad: a range summary whose range ends before the
// newest segment (its universe predates the current codebook) still
// round-trips through Save/ReadSummary, with post-epoch features reading
// as unseen.
func TestRangeSummarySaveLoad(t *testing.T) {
	w, _ := segmentedPocket(t, 4000, 150, 2, 19)
	// grow the codebook past the first segment's universe
	w.Append([]logr.Entry{{SQL: "SELECT late_col FROM late_table WHERE late = ?", Count: 5}})
	w.Seal()
	s, err := w.CompressRange(0, 1, logr.CompressOptions{Clusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := logr.ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Clusters() != s.Clusters() || restored.TotalVerbosity() != s.TotalVerbosity() {
		t.Fatalf("restored shape differs: K %d/%d", restored.Clusters(), s.Clusters())
	}
	a, err := s.EstimateFrequency("SELECT _id FROM messages")
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.EstimateFrequency("SELECT _id FROM messages")
	if err != nil || a != b {
		t.Fatalf("estimates diverge after round trip: %v vs %v (%v)", a, b, err)
	}
	// the post-range feature is simply unknown to the artifact
	if f, err := restored.EstimateFrequency("SELECT late_col FROM late_table"); err != nil || f != 0 {
		t.Fatalf("post-epoch estimate = %v, %v; want 0, nil", f, err)
	}
}

// TestCompressRangeDeterministic: repeated and freshly rebuilt stores give
// identical range summaries for a fixed seed.
func TestCompressRangeDeterministic(t *testing.T) {
	opts := logr.CompressOptions{Clusters: 4, Seed: 9}
	var artifacts [][]byte
	for trial := 0; trial < 2; trial++ {
		w, _ := segmentedPocket(t, 4000, 150, 3, 7)
		s, err := w.CompressRange(0, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, buf.Bytes())
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Fatal("CompressRange is not deterministic across store rebuilds")
	}
}

// TestSegmentsAndRetention drives the retention API through the public
// surface.
func TestSegmentsAndRetention(t *testing.T) {
	w, _ := segmentedPocket(t, 3000, 120, 3, 11)
	segs := w.Segments()
	if len(segs) != 3 || segs[0].ID != 0 || segs[2].EndID != 3 {
		t.Fatalf("segments = %+v", segs)
	}
	for i, sg := range segs {
		if sg.Queries <= 0 || sg.Distinct <= 0 {
			t.Fatalf("segment %d is empty: %+v", i, sg)
		}
		if i > 0 && sg.Epoch.TotalQueries <= segs[i-1].Epoch.TotalQueries {
			t.Fatalf("segment epochs not monotone: %+v", segs)
		}
	}
	from, to, ok := w.SealedRange()
	if !ok || from != 0 || to != 3 {
		t.Fatalf("SealedRange = %d, %d, %v", from, to, ok)
	}
	if n := w.DropBefore(1); n != 1 {
		t.Fatalf("DropBefore(1) = %d", n)
	}
	if _, err := w.CompressRange(0, 3, logr.CompressOptions{Clusters: 2, Seed: 1}); err == nil {
		t.Fatal("range over a dropped segment accepted")
	}
	if !strings.Contains(func() string {
		_, err := w.CompressRange(0, 3, logr.CompressOptions{Clusters: 2, Seed: 1})
		return err.Error()
	}(), "live seals span") {
		t.Fatal("range error does not explain the live span")
	}
	s, err := w.CompressRange(1, 3, logr.CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters() < 1 {
		t.Fatal("post-retention range summary is empty")
	}
	// the whole-stream paths still see everything (the encoder retains the
	// full snapshot; retention frees only the segments' sub-logs)
	if w.Queries() != 3000 {
		t.Fatalf("Queries = %d after retention", w.Queries())
	}
}

// TestAutoSegmentThresholdPublic: Options.SegmentThreshold seals during
// Append without explicit calls.
func TestAutoSegmentThresholdPublic(t *testing.T) {
	entries := pocketEntries(5000, 150, 13)
	w := logr.FromEntriesWithOptions(entries, logr.Options{SegmentThreshold: 1000})
	segs := w.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected auto-sealed segments, got %d", len(segs))
	}
	for _, sg := range segs[:len(segs)-1] {
		if sg.Queries < 1000 {
			t.Fatalf("segment under threshold: %+v", sg)
		}
	}
	total := 0
	for _, sg := range segs {
		total += sg.Queries
	}
	if rest := w.Queries() - total; rest < 0 || rest >= 1000 {
		t.Fatalf("active remainder %d out of range", rest)
	}
}

// TestDriftBetweenSegments: the sliding-window drift check over per-segment
// summaries — baseline-like windows stay calm, an injected workload in a
// later segment trips the alarm.
func TestDriftBetweenSegments(t *testing.T) {
	w := logr.FromEntries(nil)
	// four segments of baseline traffic
	for i := 0; i < 4; i++ {
		w.Append(pocketEntries(4000, 200, 11))
		if _, ok := w.Seal(); !ok {
			t.Fatal("seal failed")
		}
	}
	// fifth segment: baseline plus an injected exfiltration workload
	w.Append(pocketEntries(2000, 200, 11))
	raw := workload.InjectDrift(13, 15, 220)
	attack := make([]logr.Entry, len(raw))
	for i, e := range raw {
		attack[i] = logr.Entry{SQL: e.SQL, Count: e.Count}
	}
	w.Append(attack)
	if _, ok := w.Seal(); !ok {
		t.Fatal("seal failed")
	}

	opts := logr.CompressOptions{Clusters: 6, Seed: 1}
	calm, err := w.DriftBetween(0, 3, 3, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calm.Alert {
		t.Fatalf("false alarm on a baseline window: %+v", calm)
	}
	hot, err := w.DriftBetween(0, 4, 4, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hot.Alert {
		t.Fatalf("missed the injected workload: %+v", hot)
	}
	if hot.NoveltyRate <= calm.NoveltyRate {
		t.Fatalf("novelty did not rise: calm %v vs hot %v", calm.NoveltyRate, hot.NoveltyRate)
	}
}

// TestConcurrentAppendSealCompressRange is the segmented-store race test:
// appenders, sealers and range compressors run together; run with -race.
func TestConcurrentAppendSealCompressRange(t *testing.T) {
	w := logr.FromEntries(pocketEntries(2000, 150, 17))
	if _, ok := w.Seal(); !ok {
		t.Fatal("initial seal failed")
	}
	opts := logr.CompressOptions{Clusters: 3, Seed: 1}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // appender
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w.Append(pocketEntries(50, 30, int64(i%5)))
		}
	}()
	go func() { // sealer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.Seal()
		}
	}()
	for round := 0; round < 6; round++ {
		from, to, ok := w.SealedRange()
		if !ok {
			continue
		}
		s, err := w.CompressRange(from, to, opts)
		if err != nil {
			// a concurrent DropBefore/Compact could invalidate boundaries,
			// but neither runs here
			t.Errorf("round %d: %v", round, err)
			continue
		}
		if _, err := s.EstimateFrequency("SELECT _id FROM messages"); err != nil {
			t.Errorf("round %d: estimate: %v", round, err)
		}
		w.Segments()
	}
	close(stop)
	wg.Wait()
}
