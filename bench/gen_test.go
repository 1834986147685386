package main

import (
	"reflect"
	"testing"
	"time"

	"logr"
)

// inputs is everything the generators hand a workload for one seed.
type inputs struct {
	Bank      []logr.Entry
	Probes    []string
	AppProbes []string
	Novel     [][]logr.Entry
	Events    []event
}

func generate(seed int64) inputs {
	tpls := bankTemplates(bankShapes)
	in := inputs{Bank: bankLog(seed, tpls, 20000, 2000), Probes: probeSet(seed, tpls, 200), AppProbes: probeSet(seed, appLog(), serveProbes)}
	for lane := 0; lane < clients; lane++ {
		s := newNovelStream(seed, tpls, lane, clients)
		in.Novel = append(in.Novel, s.batch(nil), s.batch(nil))
	}
	in.Events = schedule(seed, 2*time.Second, serveRates, 200)
	return in
}

func TestGeneratorsDependOnlyOnTheSeed(t *testing.T) {
	a, again, other := generate(3), generate(3), generate(4)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed gave different inputs")
	}
	av, ov := reflect.ValueOf(a), reflect.ValueOf(other)
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Len() > 0 && reflect.DeepEqual(av.Field(i).Interface(), ov.Field(i).Interface()) {
			t.Errorf("seeds 3 and 4 gave the same %s", av.Type().Field(i).Name)
		}
	}
}

// Seeds draw samples of one workload: the shapes, how often each occurs and
// where it stands in the log are the same for every seed.
func TestSeedsShareTheShapes(t *testing.T) {
	shapes := func(seed int64) (logr.Stats, []int) {
		entries := bankLog(seed, bankTemplates(bankShapes), 20000, 2000)
		counts := make([]int, len(entries))
		for i, e := range entries {
			counts[i] = e.Count
		}
		return logr.FromEntries(entries).Stats(), counts
	}
	a, ac := shapes(3)
	b, bc := shapes(4)
	if a != b || !reflect.DeepEqual(ac, bc) {
		t.Errorf("seeds 3 and 4 differ in more than their constants:\n%+v\n%+v", a, b)
	}
	if n := len(generate(3).AppProbes); n < 500 {
		t.Errorf("the app log yields %d distinct probes, want at least 500", n)
	}
}

func TestBankLogShape(t *testing.T) {
	const queries, distinct = 50000, 4000
	tpls := bankTemplates(bankShapes)
	entries := bankLog(1, tpls, queries, distinct)
	if len(tpls) != bankShapes {
		t.Fatalf("%d bank shapes, want %d", len(tpls), bankShapes)
	}
	st := logr.FromEntries(entries).Stats()
	if st.Queries != queries || st.DistinctQueries != distinct || len(entries) != distinct {
		t.Errorf("bank log has %d queries in %d distinct statements (%d entries), want %d in %d", st.Queries, st.DistinctQueries, len(entries), queries, distinct)
	}
	if st.DistinctNoConst != bankShapes || st.Unparseable != 0 || st.StoredProcedures != 0 {
		t.Errorf("bank log scrubs to %d shapes (%d unparseable, %d procedures), want %d and none", st.DistinctNoConst, st.Unparseable, st.StoredProcedures, bankShapes)
	}
}

func TestAppLogShape(t *testing.T) {
	stmts := appLog()
	if len(stmts) != appStatements {
		t.Fatalf("%d app statements, want %d", len(stmts), appStatements)
	}
	var entries []logr.Entry
	for n := int64(0); n < 3; n++ {
		entries = append(entries, repeatBatch(stmts, n, nil)...)
	}
	st := logr.FromEntries(entries).Stats()
	if st.Queries != 3*batchEntries || st.DistinctQueries != appStatements || st.Unparseable != 0 {
		t.Errorf("3 repeat batches: %d queries, %d distinct, %d unparseable; want %d, %d, 0", st.Queries, st.DistinctQueries, st.Unparseable, 3*batchEntries, appStatements)
	}
}

// Every statement of the novel stream is a new raw string, across batches
// and across the lanes of concurrent clients, and all of them scrub to the
// bank log's shapes.
func TestNovelStreamIsNovel(t *testing.T) {
	tpls := bankTemplates(bankShapes)
	var entries []logr.Entry
	for lane := 0; lane < clients; lane++ {
		s := newNovelStream(2, tpls, lane, clients)
		for i := 0; i < 8; i++ {
			entries = append(entries, s.batch(nil)...)
		}
	}
	st := logr.FromEntries(entries).Stats()
	if st.Queries != len(entries) || st.DistinctQueries != len(entries) {
		t.Errorf("%d novel entries encode to %d queries, %d distinct; want all distinct", len(entries), st.Queries, st.DistinctQueries)
	}
	if st.DistinctNoConst > bankShapes || st.DistinctNoConst < 100 || st.Unparseable != 0 {
		t.Errorf("novel entries scrub to %d shapes (%d unparseable), want 100..%d and none", st.DistinctNoConst, st.Unparseable, bankShapes)
	}
}

func TestProbesAreAnswerable(t *testing.T) {
	tpls := bankTemplates(bankShapes)
	w := logr.FromEntries(bankLog(5, tpls, 20000, 2000))
	probes := probeSet(5, tpls, 300)
	if len(probes) != 300 {
		t.Fatalf("%d probes, want 300", len(probes))
	}
	hits := 0
	for _, q := range probes {
		n, err := w.Count(q)
		if err != nil {
			t.Fatalf("probe %q: %v", q, err)
		}
		if n > 0 {
			hits++
		}
	}
	if hits < len(probes)/2 {
		t.Errorf("only %d of %d probes match any query of the log", hits, len(probes))
	}
}

func TestScheduleRatesAndOrder(t *testing.T) {
	const window = 2 * time.Second
	events := schedule(9, window, serveRates, 50)
	var n [numOpKinds]int
	last := time.Duration(-1)
	for _, ev := range events {
		if ev.due < last || ev.due >= window || ev.probe < 0 || ev.probe >= 50 {
			t.Fatalf("event %+v out of order, window or probe range", ev)
		}
		last = ev.due
		n[ev.kind]++
	}
	for k, rate := range serveRates {
		if want := rate * int(window/time.Second); n[k] != want {
			t.Errorf("%d %s events in %v, want %d", n[k], opKind(k), window, want)
		}
	}
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(bankShapes, 300000, zipfS, zipfShift)
	sum := 0
	for i, c := range counts {
		if c < 1 || (i > 1 && c > counts[i-1]) {
			t.Fatalf("rank %d has count %d after %d", i, c, counts[i-1])
		}
		sum += c
	}
	if sum != 300000 {
		t.Errorf("counts sum to %d, want 300000", sum)
	}
}
