package logr

// Internal tests for the universe-aware probe resolver: they pin the
// out-of-snapshot classification deterministically by probing a snapshot
// captured *before* an Append grew the shared codebook — the exact
// interleaving a concurrent monitoring loop produces.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"logr/internal/feature"
	"logr/internal/regularize"
	"logr/internal/sqlparser"
	"logr/internal/workload"
)

func TestPatternRejectsOutOfSnapshotFeatures(t *testing.T) {
	w := FromEntries([]Entry{
		{SQL: "SELECT _id FROM messages WHERE status = ?", Count: 10},
	})
	stale := w.snapshot() // captured before the codebook grows
	w.Append([]Entry{{SQL: "SELECT balance FROM accounts WHERE owner_id = ?", Count: 5}})

	// probing the stale snapshot with a post-snapshot feature must not
	// silently weaken the pattern — it is an explicit error
	_, err := pattern(stale, "SELECT _id FROM messages WHERE owner_id = ?")
	var oos *OutOfSnapshotError
	if !errors.As(err, &oos) {
		t.Fatalf("err = %v; want *OutOfSnapshotError", err)
	}
	if len(oos.Features) != 1 {
		t.Fatalf("out-of-snapshot features = %v; want exactly the post-append one", oos.Features)
	}
	// never-seen features keep their distinct error
	if _, err := pattern(stale, "SELECT nope FROM nowhere"); err == nil || errors.As(err, &oos) {
		t.Fatalf("unknown-feature err = %v; want a non-snapshot error", err)
	}
	// in-snapshot patterns resolve normally
	if b, err := pattern(stale, "SELECT _id FROM messages"); err != nil || b.Count() != 2 {
		t.Fatalf("in-snapshot pattern = %v bits, %v", b.Count(), err)
	}
	// the live workload resolves the same probe on a fresh snapshot
	if n, err := w.Count("SELECT _id FROM messages WHERE owner_id = ?"); err == nil || n != 0 {
		// the pattern mixes features of two disjoint queries: no query
		// contains both, so the count is 0 — but it must resolve
		if err != nil {
			t.Fatalf("Count after append: %v", err)
		}
	}
}

func TestResolveProbeClassification(t *testing.T) {
	w := FromEntries([]Entry{
		{SQL: "SELECT _id FROM messages WHERE status = ?", Count: 10},
	})
	res := w.snapshot()
	w.Append([]Entry{{SQL: "SELECT balance FROM accounts", Count: 1}})

	p, err := patternProbe(res.Book, res.Log.Universe(), "SELECT _id, balance FROM messages, accounts, missing")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.idx) != 2 { // _id, messages
		t.Fatalf("in-universe idx = %v", p.idx)
	}
	if len(p.stale) != 2 { // balance, accounts
		t.Fatalf("stale = %v", p.stale)
	}
	if len(p.unknown) != 1 { // missing
		t.Fatalf("unknown = %v", p.unknown)
	}
	for _, i := range p.idx {
		if i >= res.Log.Universe() {
			t.Fatalf("resolver leaked out-of-universe index %d", i)
		}
	}
}

// parentResolve is the resolver as it stood before extraction was
// memoized, kept verbatim as the oracle: parse, regularize, extract block
// by block and classify, on every call.
func parentResolve(book *feature.Codebook, universe int, sql string, isPattern bool) (probe, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		if isPattern {
			return probe{}, fmt.Errorf("logr: pattern does not parse: %w", err)
		}
		return probe{}, err
	}
	r := regularize.Regularize(stmt, regularize.DefaultOptions)
	if !isPattern {
		return parentClassify(book, universe, r.Blocks), nil
	}
	if len(r.Blocks) != 1 {
		return probe{}, fmt.Errorf("logr: pattern must regularize to a single conjunctive block")
	}
	return parentClassify(book, universe, r.Blocks[0:1]), nil
}

func parentClassify(book *feature.Codebook, universe int, blocks []*sqlparser.Select) probe {
	scratch := feature.NewCodebook(book.Scheme())
	var p probe
	set := map[int]bool{}
	for _, blk := range blocks {
		for _, fi := range scratch.Extract(blk) {
			f := scratch.Feature(fi)
			if f.Kind == feature.SelectKind && f.Text == "*" {
				continue
			}
			i, ok := book.Lookup(f)
			switch {
			case !ok:
				p.unknown = append(p.unknown, f.String())
			case i >= universe:
				p.stale = append(p.stale, f.String())
			default:
				set[i] = true
			}
		}
	}
	for i := range set {
		p.idx = append(p.idx, i)
	}
	sort.Ints(p.idx)
	return p
}

// sameAsParent holds a resolved probe to the parent's. A pattern must match
// exactly. A window query may differ in one intended way: the parent listed
// a feature shared by two blocks once per block in unknown or stale, the
// memoized resolver lists it once (the window path reads only whether the
// lists are empty).
func sameAsParent(got, want probe, isPattern bool) bool {
	if !isPattern {
		want.unknown, want.stale = distinct(want.unknown), distinct(want.stale)
	}
	return slices.Equal(got.idx, want.idx) && slices.Equal(got.unknown, want.unknown) && slices.Equal(got.stale, want.stale)
}

// distinct drops the repeats of a list, keeping first appearances in order.
func distinct(list []string) []string {
	var out []string
	for _, s := range list {
		if !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func memoized(scheme feature.Scheme, sql string) (*probeFeatures, bool) {
	probeMemo.mu.Lock()
	defer probeMemo.mu.Unlock()
	x, ok := probeMemo.m[probeKey{scheme, sql}]
	return x, ok
}

func entriesOf(raw []workload.LogEntry) []Entry {
	out := make([]Entry, len(raw))
	for i, e := range raw {
		out[i] = Entry{SQL: e.SQL, Count: e.Count}
	}
	return out
}

// TestProbeMemoMatchesFresh: over both generators and both schemes, every
// statement of the log and a set of pattern probes cut from it resolve —
// as patterns and as window queries, against the whole universe and against
// an older, smaller one — to what the parent's resolver gives (see
// sameAsParent), on the first (miss) and the second (hit) call alike.
func TestProbeMemoMatchesFresh(t *testing.T) {
	logs := map[string][]workload.LogEntry{
		"usbank":     workload.USBank(workload.USBankConfig{TotalQueries: 20000, DistinctTarget: 300, NoiseEntries: 20, Seed: 3}),
		"pocketdata": workload.PocketData(workload.PocketDataConfig{TotalQueries: 20000, DistinctTarget: 200, Seed: 4}),
	}
	for name, raw := range logs {
		for _, extended := range []bool{false, true} {
			cut := len(raw) / 10
			w := FromEntriesWithOptions(entriesOf(raw[:cut]), Options{ExtendedScheme: extended})
			old := w.snapshot()
			if err := w.Append(entriesOf(raw[cut:])); err != nil {
				t.Fatal(err)
			}
			cur := w.snapshot()
			if cur.Log.Universe() == old.Log.Universe() {
				t.Fatalf("%s: the second half registered no feature; the stale path goes untested", name)
			}
			texts := []string{"SELECT * FROM nowhere", "SELECT (", ""}
			for _, e := range raw {
				texts = append(texts, e.SQL)
				// a pattern probe: the statement's projection and tables only
				if i := strings.Index(e.SQL, " WHERE "); i > 0 {
					texts = append(texts, e.SQL[:i])
				}
			}
			var usable, stale, unknown, failed int
			for _, sql := range texts {
				for _, universe := range []int{old.Log.Universe(), cur.Log.Universe()} {
					for _, isPattern := range []bool{true, false} {
						want, wantErr := parentResolve(cur.Book, universe, sql, isPattern)
						for pass := 0; pass < 2; pass++ {
							var got probe
							var err error
							if isPattern {
								got, err = patternProbe(cur.Book, universe, sql)
							} else {
								got, err = windowProbe(cur.Book, universe, sql)
							}
							if !sameErr(err, wantErr) || !sameAsParent(got, want, isPattern) {
								t.Fatalf("%s extended=%v pattern=%v universe %d pass %d, %q:\n got %+v, %v\nwant %+v, %v",
									name, extended, isPattern, universe, pass, sql, got, err, want, wantErr)
							}
						}
						switch {
						case wantErr != nil:
							failed++
						case len(want.unknown) > 0:
							unknown++
						case len(want.stale) > 0:
							stale++
						default:
							usable++
						}
					}
				}
			}
			if usable == 0 || stale == 0 || unknown == 0 || failed == 0 {
				t.Fatalf("%s extended=%v: usable %d, stale %d, unknown %d, failed %d; want every class", name, extended, usable, stale, unknown, failed)
			}
		}
	}
}

// TestProbeMemoLateFeatures: a memo entry made while a probe's features
// were unknown is classified afresh on every call, so the features that an
// Append registers later are stale to the older snapshot and usable to the
// newer one, from the same entry.
func TestProbeMemoLateFeatures(t *testing.T) {
	w := FromEntries([]Entry{{SQL: "SELECT _id FROM messages WHERE status = ?", Count: 10}})
	q := "SELECT balance FROM accounts WHERE owner_id = ?"
	var unk *UnknownFeatureError
	if _, err := w.Count(q); !errors.As(err, &unk) || len(unk.Features) != 3 {
		t.Fatalf("Count before the Append: %v; want the three features unknown", err)
	}
	entry, ok := memoized(feature.AligonScheme, q)
	if !ok {
		t.Fatal("a probe that parsed was not memoized")
	}
	before := w.snapshot()
	if err := w.Append([]Entry{{SQL: q, Count: 5}}); err != nil {
		t.Fatal(err)
	}
	var oos *OutOfSnapshotError
	if _, err := pattern(before, q); !errors.As(err, &oos) || len(oos.Features) != 3 {
		t.Fatalf("older snapshot after the Append: %v; want the three features stale", err)
	}
	if n, err := w.Count(q); err != nil || n != 5 {
		t.Fatalf("Count after the Append = %d, %v; want 5", n, err)
	}
	if again, _ := memoized(feature.AligonScheme, q); again != entry {
		t.Fatal("the Append replaced the memo entry; classification must not touch it")
	}
}

// TestProbeMemoStarAndUnknown: a bare * selects no feature, a qualified one
// does, and never-seen features are reported as unknown in order.
func TestProbeMemoStarAndUnknown(t *testing.T) {
	w := FromEntries([]Entry{{SQL: "SELECT * FROM messages WHERE status = ?", Count: 4}})
	res := w.snapshot()
	for _, c := range []struct {
		sql     string
		idx     int
		unknown []string
	}{
		{"SELECT * FROM messages", 1, nil},
		{"SELECT * FROM messages WHERE status = ?", 2, nil},
		{"SELECT messages.* FROM messages", 1, []string{"⟨messages.*, SELECT⟩"}},
		{"SELECT nope FROM messages, nowhere", 1, []string{"⟨nowhere, FROM⟩", "⟨nope, SELECT⟩"}},
	} {
		for pass := 0; pass < 2; pass++ {
			p, err := patternProbe(res.Book, res.Log.Universe(), c.sql)
			if err != nil || len(p.idx) != c.idx || !slices.Equal(p.unknown, c.unknown) || len(p.stale) != 0 {
				t.Fatalf("%q pass %d: %+v, %v; want %d usable and unknown %v", c.sql, pass, p, err, c.idx, c.unknown)
			}
		}
		x, _ := memoized(feature.AligonScheme, c.sql)
		for _, f := range x.feats {
			if f == (feature.Feature{Kind: feature.SelectKind, Text: "*"}) {
				t.Fatalf("%q: the memo holds ⟨*, SELECT⟩", c.sql)
			}
		}
	}
	if n, err := w.Count("SELECT * FROM messages"); err != nil || n != 4 {
		t.Fatalf("Count(SELECT *) = %d, %v; want 4", n, err)
	}
}

// TestProbeMemoSkipsFailures: a text that does not parse gets the same
// error on every call and never enters the memo; a text of two blocks is
// memoized (it parsed) but still refused as a pattern.
func TestProbeMemoSkipsFailures(t *testing.T) {
	w := FromEntries([]Entry{{SQL: "SELECT a FROM t WHERE b = ?", Count: 1}})
	res := w.snapshot()
	for _, sql := range []string{"SELECT FROM WHERE", "DROP TABLE t", "SELECT a FROM t WHERE (b = ?"} {
		_, first := patternProbe(res.Book, res.Log.Universe(), sql)
		_, second := patternProbe(res.Book, res.Log.Universe(), sql)
		if first == nil || !sameErr(first, second) {
			t.Fatalf("%q: errors %v then %v; want one parse error twice", sql, first, second)
		}
		if _, ok := memoized(feature.AligonScheme, sql); ok {
			t.Fatalf("%q: a failed extraction was memoized", sql)
		}
	}
	or := "SELECT a FROM t WHERE b = ? OR b = 2"
	for pass := 0; pass < 2; pass++ {
		if _, err := patternProbe(res.Book, res.Log.Universe(), or); err == nil || err.Error() != "logr: pattern must regularize to a single conjunctive block" {
			t.Fatalf("pass %d: %v; want the single-block error", pass, err)
		}
	}
	if x, ok := memoized(feature.AligonScheme, or); !ok || x.blocks != 2 {
		t.Fatalf("two-block text: memoized %v; want an entry of 2 blocks", x)
	}
	if p, err := windowProbe(res.Book, res.Log.Universe(), or); err != nil || len(p.idx) != 3 {
		t.Fatalf("two-block window: %+v, %v; want a, t and b = ? usable", p, err)
	}
}

// TestWindowProbeListsSharedFeatureOnce pins the one intended difference
// from the parent's resolver: an unknown feature in both blocks of a window
// query is listed twice by the parent and once now.
func TestWindowProbeListsSharedFeatureOnce(t *testing.T) {
	w := FromEntries([]Entry{{SQL: "SELECT a FROM t WHERE b = ?", Count: 1}})
	res := w.snapshot()
	sql := "SELECT nope FROM t WHERE b = ? OR b = 2"
	want, _ := parentResolve(res.Book, res.Log.Universe(), sql, false)
	got, err := windowProbe(res.Book, res.Log.Universe(), sql)
	if err != nil || !slices.Equal(want.unknown, []string{"⟨nope, SELECT⟩", "⟨nope, SELECT⟩"}) || !slices.Equal(got.unknown, []string{"⟨nope, SELECT⟩"}) {
		t.Fatalf("unknown: parent %v, memoized %v, %v; want the feature twice, then once", want.unknown, got.unknown, err)
	}
	if !sameAsParent(got, want, false) || sameAsParent(got, want, true) {
		t.Fatal("sameAsParent must forgive the repeat for a window query only")
	}
}

// TestProbeMemoKeysScheme: the Extended scheme extracts GROUP BY and
// ORDER BY features that Aligon does not, so one text has one entry per
// scheme.
func TestProbeMemoKeysScheme(t *testing.T) {
	sql := "SELECT a, COUNT(*) FROM t WHERE b = ? GROUP BY a ORDER BY a"
	var feats [2][]feature.Feature
	for i, extended := range []bool{false, true} {
		w := FromEntriesWithOptions([]Entry{{SQL: sql, Count: 3}}, Options{ExtendedScheme: extended})
		if n, err := w.Count(sql); err != nil || n != 3 {
			t.Fatalf("extended=%v: Count = %d, %v", extended, n, err)
		}
		x, ok := memoized(w.st.Book().Scheme(), sql)
		if !ok {
			t.Fatalf("extended=%v: not memoized", extended)
		}
		feats[i] = x.feats
	}
	if len(feats[1]) <= len(feats[0]) {
		t.Fatalf("Aligon features %v, Extended %v; want Extended to add GROUP BY, ORDER BY and the aggregate", feats[0], feats[1])
	}
}

// TestProbeMemoBound: the memo never holds more than probeMemoLimit
// entries, clears when full, and never keeps a text over probeMemoMaxText.
func TestProbeMemoBound(t *testing.T) {
	book := feature.NewCodebook(feature.AligonScheme)
	for i := 0; i < probeMemoLimit+100; i++ {
		if _, err := patternProbe(book, 0, fmt.Sprintf("SELECT c%d FROM t", i)); err != nil {
			t.Fatal(err)
		}
		probeMemo.mu.Lock()
		n := len(probeMemo.m)
		probeMemo.mu.Unlock()
		if n > probeMemoLimit {
			t.Fatalf("after %d texts the memo holds %d entries", i+1, n)
		}
	}
	if _, ok := memoized(feature.AligonScheme, fmt.Sprintf("SELECT c%d FROM t", probeMemoLimit+99)); !ok {
		t.Fatal("the newest text is not memoized after a clear")
	}
	long := "SELECT a FROM t WHERE b = '" + strings.Repeat("x", probeMemoMaxText) + "'"
	for pass := 0; pass < 2; pass++ {
		if p, err := patternProbe(book, 0, long); err != nil || len(p.unknown) != 3 {
			t.Fatalf("long text: %+v, %v", p, err)
		}
	}
	if _, ok := memoized(feature.AligonScheme, long); ok {
		t.Fatal("a text over probeMemoMaxText was memoized")
	}
}

// TestProbeMemoConcurrent resolves probes from several goroutines while an
// Append keeps registering their features; run under -race it checks that
// memo entries are shared read-only. Every answer must be a count or one
// of the two classification errors.
func TestProbeMemoConcurrent(t *testing.T) {
	w := FromEntries([]Entry{{SQL: "SELECT c0 FROM t0 WHERE k = ?", Count: 1}})
	sum, err := w.Compress(CompressOptions{Clusters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < n; i++ {
			if err := w.Append([]Entry{{SQL: fmt.Sprintf("SELECT c%d FROM t%d WHERE k = ?", i, i%7), Count: i}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4*n; r++ {
				q := fmt.Sprintf("SELECT c%d FROM t%d WHERE k = ?", (r+g)%n, (r+g)%n%7)
				_, err := w.Count(q)
				var unk *UnknownFeatureError
				var oos *OutOfSnapshotError
				if err != nil && !errors.As(err, &unk) && !errors.As(err, &oos) {
					t.Errorf("Count(%q): %v", q, err)
				}
				if _, _, err := sum.Estimate(q); err != nil {
					t.Errorf("Estimate(%q): %v", q, err)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("SELECT c%d FROM t%d WHERE k = ?", i, i%7)
		if c, err := w.Count(q); err != nil || c != max(i, 1) {
			t.Fatalf("Count(%q) = %d, %v; want %d", q, c, err, max(i, 1))
		}
	}
}

// TestProbeHitAllocs pins a memo hit's allocations: the usable-index slice
// and the pattern's bit vector, where a parse makes about a hundred.
func TestProbeHitAllocs(t *testing.T) {
	w := FromEntries(entriesOf(workload.USBank(workload.USBankConfig{TotalQueries: 20000, DistinctTarget: 300, Seed: 3})))
	sum, err := w.Compress(CompressOptions{Clusters: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := w.snapshot()
	var q string
	for _, e := range workload.USBank(workload.USBankConfig{TotalQueries: 20000, DistinctTarget: 300, Seed: 3}) {
		if p, err := patternProbe(res.Book, res.Log.Universe(), e.SQL); err == nil && len(p.idx) >= 4 && len(p.unknown)+len(p.stale) == 0 {
			q = e.SQL
			break
		}
	}
	if q == "" {
		t.Fatal("no single-block probe of four or more features in the log")
	}
	sink := 0.0
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"patternProbe", func() {
			p, _ := patternProbe(res.Book, res.Log.Universe(), q)
			sink += float64(len(p.idx))
		}},
		{"Workload.Count", func() {
			n, _ := w.Count(q)
			sink += float64(n)
		}},
		{"Summary.Estimate", func() {
			f, _, _ := sum.Estimate(q)
			sink += f
		}},
	} {
		c.fn() // the miss, and Count's posting lists
		if a := testing.AllocsPerRun(100, c.fn); a > 4 {
			t.Errorf("%s on a memo hit: %v allocs per call, want ≤ 4", c.name, a)
		}
	}
	_ = sink
}

// FuzzProbeResolve resolves arbitrary text against a fixed codebook, as a
// pattern and as a window query, twice each (a memo miss, then a hit where
// the text parsed), and requires the probe or the error the parent's
// resolver gives (see sameAsParent).
func FuzzProbeResolve(f *testing.F) {
	w := FromEntries([]Entry{
		{SQL: "SELECT _id, status FROM messages WHERE status = ? AND chat_id = ?", Count: 9},
		{SQL: "SELECT * FROM contacts WHERE name LIKE ? OR circle_id = 3", Count: 4},
		{SQL: "SELECT m.body FROM messages m JOIN contacts c ON m.chat_id = c.id", Count: 2},
	})
	older := w.snapshot()
	if err := w.Append([]Entry{{SQL: "SELECT balance FROM accounts WHERE owner_id = ?", Count: 1}}); err != nil {
		f.Fatal(err)
	}
	res := w.snapshot()
	for _, seed := range []string{
		"SELECT _id FROM messages WHERE status = ?",
		"SELECT * FROM contacts",
		"SELECT balance FROM accounts, messages",
		"SELECT a FROM t WHERE b = 1 OR b = 2",
		"SELECT nope FROM nowhere GROUP BY x",
		"SELECT (",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		for _, universe := range []int{older.Log.Universe(), res.Log.Universe()} {
			for _, isPattern := range []bool{true, false} {
				want, wantErr := parentResolve(res.Book, universe, sql, isPattern)
				for pass := 0; pass < 2; pass++ {
					var got probe
					var err error
					if isPattern {
						got, err = patternProbe(res.Book, universe, sql)
					} else {
						got, err = windowProbe(res.Book, universe, sql)
					}
					if !sameErr(err, wantErr) || !sameAsParent(got, want, isPattern) {
						t.Fatalf("pattern=%v universe %d pass %d, %q:\n got %+v, %v\nwant %+v, %v", isPattern, universe, pass, sql, got, err, want, wantErr)
					}
				}
			}
		}
	})
}
