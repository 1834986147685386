package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"logr/internal/feature"
	"logr/internal/sqlparser"
)

// fingerprint is sqlparser.Fingerprint as a string, "" when it fails.
func fingerprint(t testing.TB, sql string, keep bool) (string, bool) {
	t.Helper()
	fp, err := sqlparser.Fingerprint(nil, sql, keep)
	_, lexErr := sqlparser.Lex(sql)
	if (err == nil) != (lexErr == nil) {
		t.Fatalf("%q: fingerprint error %v, lex error %v", sql, err, lexErr)
	}
	return string(fp), err == nil
}

// sameTokens reports whether a and b lex to the same token kinds and texts,
// ignoring number and string literal text unless keep is set.
func sameTokens(t testing.TB, a, b string, keep bool) bool {
	t.Helper()
	ta, errA := sqlparser.Lex(a)
	tb, errB := sqlparser.Lex(b)
	if errA != nil || errB != nil || len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i].Kind != tb[i].Kind {
			return false
		}
		literal := ta[i].Kind == sqlparser.TokNumber || ta[i].Kind == sqlparser.TokString
		if (keep || !literal) && ta[i].Text != tb[i].Text {
			return false
		}
	}
	return true
}

// outcome is what prepare decides about a statement, minus its features.
type outcome struct {
	fail                    failKind
	key                     string
	conjunctive, rewritable bool
}

func outcomeOf(e *Encoder, sql string) outcome {
	p := e.prepare(sql)
	return outcome{p.fail, p.canonKey, p.conjunctive, p.rewritable}
}

// checkFingerprintGroups is the fingerprint invariant over a set of
// statements: statements with equal fingerprints lex to the same tokens
// apart from literal text and prepare to the same outcome.
func checkFingerprintGroups(t *testing.T, label string, sqls []string) {
	t.Helper()
	for _, keep := range []bool{false, true} {
		e := NewEncoder(EncodeOptions{KeepConstants: keep})
		first := map[string]string{}
		for _, sql := range sqls {
			fp, ok := fingerprint(t, sql, keep)
			if !ok {
				continue
			}
			rep, seen := first[fp]
			if !seen {
				first[fp] = sql
				continue
			}
			if !sameTokens(t, rep, sql, keep) {
				t.Fatalf("%s (keep=%v): %q and %q share a fingerprint but not their tokens", label, keep, rep, sql)
			}
			if a, b := outcomeOf(e, rep), outcomeOf(e, sql); a != b {
				t.Fatalf("%s (keep=%v): %q and %q share a fingerprint but prepare to %+v and %+v", label, keep, rep, sql, a, b)
			}
		}
	}
}

// fingerprintCases are the places literal-blindness could go wrong, as
// pairs whose fingerprints must (same) or must not be equal. Either way,
// fingerprint-equal statements must prepare alike.
var fingerprintCases = []struct {
	a, b string
	same bool
}{
	{"SELECT a FROM t LIMIT 10", "SELECT a FROM t LIMIT 20", true},
	{"SELECT a FROM t LIMIT 10 OFFSET 5", "SELECT a FROM t LIMIT 1 OFFSET 500", true},
	{"SELECT a FROM t WHERE b IN (1, 2)", "SELECT a FROM t WHERE b IN (3, 4)", true},
	{"SELECT a FROM t WHERE b IN (1, 2)", "SELECT a FROM t WHERE b IN (1, 2, 3)", false},
	{"SELECT a FROM t WHERE b IN ('x')", "SELECT a FROM t WHERE b IN (7)", false},
	{"SELECT a FROM t WHERE b = NULL", "SELECT a FROM t WHERE b = 1", false},
	{"SELECT a FROM t WHERE b IS NULL", "SELECT a FROM t WHERE b IS NOT NULL", false},
	{"SELECT a FROM t WHERE b = TRUE", "SELECT a FROM t WHERE b = FALSE", false},
	{"SELECT a FROM t WHERE b = TRUE", "SELECT a FROM t WHERE b = true", true},
	{"SELECT a FROM t WHERE b = -1", "SELECT a FROM t WHERE b = -70", true},
	{"SELECT a FROM t WHERE b = -1", "SELECT a FROM t WHERE b = 1", false},
	{"SELECT a FROM t WHERE b = - -1", "SELECT a FROM t WHERE b = - -2.5", true},
	{"SELECT a FROM t WHERE b = 1e5", "SELECT a FROM t WHERE b = .5", true},
	{"SELECT a FROM t WHERE b = 'it''s'", "SELECT a FROM t WHERE b = ''", true},
	{"SELECT a FROM t WHERE b = 'x'", "SELECT a FROM t WHERE b = ?", false},
	{"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = '1'", false},
	{"SELECT a /* note */ FROM t -- trailing\nWHERE b = 1", "SELECT a FROM t WHERE b = 2", true},
	{"select a from t where b = 1", "SELECT a FROM t WHERE b = 2", true},
	{`SELECT "a" FROM t`, "SELECT a FROM t", true},
	{`SELECT "a""b" FROM [t]`, `SELECT "a""b" FROM t`, true},
	{`SELECT "select" FROM t`, "SELECT select FROM t", false},
	{"SELECT a FROM t ORDER BY 1", "SELECT a FROM t ORDER BY 2", true},
	{"SELECT CAST(a AS DECIMAL(10, 2)) FROM t", "SELECT CAST(a AS DECIMAL(12, 4)) FROM t", true},
	{"SELECT a FROM t WHERE b = 1 OR c = 2", "SELECT a FROM t WHERE b = 3 OR c = 4", true},
	{"SELECT a FROM t WHERE b BETWEEN 1 AND 2", "SELECT a FROM t WHERE b BETWEEN 'x' AND 'y'", false},
	{"SELECT 1x FROM t", "SELECT 1 x FROM t", true},
	{"SELECT 1.2.3 FROM t", "SELECT 1.23 FROM t", false},
	{"CALL proc(1)", "CALL proc(2)", true},
	{"SELECT 'unterminated", "SELECT 'also unterminated", false},
	{"CALL proc('unterminated", "CALL proc('other", false},
}

// TestFingerprintCases pins the pairs above and the invariant over them.
func TestFingerprintCases(t *testing.T) {
	var all []string
	for _, c := range fingerprintCases {
		fa, okA := fingerprint(t, c.a, false)
		fb, okB := fingerprint(t, c.b, false)
		if got := okA && okB && fa == fb; got != c.same {
			t.Errorf("%q vs %q: equal fingerprints = %v, want %v", c.a, c.b, got, c.same)
		}
		// with constants kept, literals are part of the fingerprint
		ka, _ := fingerprint(t, c.a, true)
		kb, _ := fingerprint(t, c.b, true)
		if okA && okB && ka == kb && !sameTokens(t, c.a, c.b, true) {
			t.Errorf("%q vs %q: equal with-constants fingerprints over different literals", c.a, c.b)
		}
		all = append(all, c.a, c.b)
	}
	checkFingerprintGroups(t, "cases", all)
	// a statement the lexer rejects still gets the parser's verdict
	e := NewEncoder(EncodeOptions{})
	if got := outcomeOf(e, "CALL proc('unterminated").fail; got != failStoredProc {
		t.Errorf("lex-failing CALL prepared as %v, want a stored procedure", got)
	}
}

// TestFingerprintGenerators is the differential form of the invariant over
// every generator's statements.
func TestFingerprintGenerators(t *testing.T) {
	sqls := func(entries []LogEntry) []string {
		out := make([]string, len(entries))
		for i, en := range entries {
			out[i] = en.SQL
		}
		return out
	}
	checkFingerprintGroups(t, "usbank", sqls(USBank(USBankConfig{TotalQueries: 8000, DistinctTarget: 300, ConstantVariants: 12, NoiseEntries: 200, Seed: 7})))
	checkFingerprintGroups(t, "pocketdata", sqls(PocketData(PocketDataConfig{TotalQueries: 5000, DistinctTarget: 605, Seed: 7})))
	checkFingerprintGroups(t, "drift", sqls(InjectDrift(7, 60, 600)))
	checkFingerprintGroups(t, "distinct-literals", sqls(novelStream(6000, 7)))
}

// relit rewrites src's number and string literals into others drawn from
// seed, leaving every other byte alone: a statement that usually shares
// src's literal-blind fingerprint.
func relit(src, seed string) string {
	toks, err := sqlparser.Lex(src)
	if err != nil {
		return src
	}
	var b strings.Builder
	last := 0
	for i, tk := range toks {
		if tk.Kind != sqlparser.TokNumber && tk.Kind != sqlparser.TokString {
			continue
		}
		b.WriteString(src[last:tk.Pos])
		if tk.Kind == sqlparser.TokNumber {
			fmt.Fprintf(&b, "%d", len(seed)+i)
		} else {
			b.WriteString("'" + strings.ReplaceAll(seed, "'", "''") + "'")
		}
		last = tk.Pos + len(tk.Text)
	}
	b.WriteString(src[last:])
	return b.String()
}

// FuzzFingerprint checks the fingerprint invariant on arbitrary input: the
// scan fails exactly when the lexer does, and two statements with equal
// fingerprints — a and b, or a and a with its literals rewritten — lex to
// the same tokens apart from literal text and prepare to the same outcome.
// With constants kept, equal fingerprints mean equal tokens outright.
func FuzzFingerprint(f *testing.F) {
	for _, c := range fingerprintCases {
		f.Add(c.a, c.b)
	}
	f.Add("SELECT a FROM t WHERE b IN (1, 2, 3) AND c LIKE 'x%'", "zz")
	e := NewEncoder(EncodeOptions{})
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, pair := range [][2]string{{a, b}, {a, relit(a, b)}} {
			x, y := pair[0], pair[1]
			fx, okX := fingerprint(t, x, false)
			fy, okY := fingerprint(t, y, false)
			if okX && okY && fx == fy {
				if !sameTokens(t, x, y, false) {
					t.Fatalf("%q and %q share a fingerprint but not their tokens", x, y)
				}
				if ox, oy := outcomeOf(e, x), outcomeOf(e, y); ox != oy {
					t.Fatalf("%q and %q share a fingerprint but prepare to %+v and %+v", x, y, ox, oy)
				}
			}
			kx, _ := fingerprint(t, x, true)
			ky, _ := fingerprint(t, y, true)
			if okX && okY && kx == ky && !sameTokens(t, x, y, true) {
				t.Fatalf("%q and %q share a with-constants fingerprint but not their tokens", x, y)
			}
		}
	})
}

// referenceEncode is the encoder without any memo table: every distinct
// raw statement is parsed, in input order, and counted by its text.
func referenceEncode(entries []LogEntry, opts EncodeOptions) ([]feature.Feature, []canonical, PipelineStats) {
	e := NewEncoder(opts)
	seen := map[string]rawRef{}
	for _, en := range entries {
		count := max(en.Count, 1)
		e.stats.TotalQueries += count
		ref, ok := seen[en.SQL]
		if !ok {
			ref = e.admitShape(en.SQL, e.prepare(en.SQL))
			seen[en.SQL] = ref
			e.stats.DistinctQueries++
		}
		e.replay(ref, count)
	}
	return e.book.Features(), e.canon, e.Result().Stats
}

// TestEncoderMemoTurnover: with more raw statements and more shapes than
// the memo tables hold, so both are cleared mid-stream and statements come
// back after their entries are gone, the encoder still matches the
// reference that parses every distinct statement — in its codebook,
// canonical table and every statistic, through AddBatch at any parallelism
// and through Add.
func TestEncoderMemoTurnover(t *testing.T) {
	shapes := cacheLimit + cacheLimit/8
	var entries []LogEntry
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < shapes; i++ {
			// the third pass repeats the first statement for statement
			lit := pass % 2
			entries = append(entries, LogEntry{SQL: fmt.Sprintf("SELECT a FROM t%d WHERE b = %d", i%(shapes-7), i*2+lit), Count: 1 + i%3})
		}
		entries = append(entries, LogEntry{SQL: fmt.Sprintf("CALL p(%d)", pass)}, LogEntry{SQL: "SELECT 'unterminated"})
	}
	opts := EncodeOptions{Parallelism: 1}
	book, canon, stats := referenceEncode(entries, opts)
	batch := NewEncoder(opts)
	batch.AddBatch(entries)
	one := NewEncoder(opts)
	for _, en := range entries {
		one.Add(en)
	}
	for _, e := range []*Encoder{batch, one} {
		if got := e.Result().Stats; got != stats {
			t.Fatalf("stats %+v, reference %+v", got, stats)
		}
		if !reflect.DeepEqual(e.book.Features(), book) {
			t.Fatal("codebook differs from the reference")
		}
		if !reflect.DeepEqual(e.canon, canon) {
			t.Fatal("canonical table differs from the reference")
		}
	}
}
