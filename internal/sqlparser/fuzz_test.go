package sqlparser

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser's robustness contract: arbitrary input never
// panics, and accepted input round-trips through the printer to an
// equal-printing statement.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT _id, sms_type FROM Messages WHERE status = ? AND transport_type = ?",
		"SELECT a FROM t WHERE (b = 1 OR c = 'x') AND NOT d IS NULL",
		"SELECT COUNT(*) FROM u GROUP BY g HAVING COUNT(*) > 2 ORDER BY g DESC LIMIT 5",
		"SELECT * FROM (SELECT a FROM t) s JOIN u ON s.a = u.a",
		"SELECT a FROM t UNION ALL SELECT b FROM u",
		"SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t",
		"SELECT 'unterminated",
		"SELECT )(",
		"",
		"\x00\xff",
		strings.Repeat("(", 100),
		`SELECT "a b", "select", t."x""y" FROM "weird table" AS "as"`,
		"SELECT [bracketed], `backticked` FROM t",
		"SELECT héllo FROM tàble WHERE é = ?",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		printed := stmt.SQL()
		re, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but printed form %q does not reparse: %v", src, printed, err)
		}
		if re.SQL() != printed {
			t.Fatalf("print not a fixpoint: %q -> %q", printed, re.SQL())
		}
	})
}

// keywords maps each reserved word to itself: FuzzLex's oracle for
// keyword recognition.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range keywordList {
		m[kw] = kw
	}
	return m
}()

// FuzzLex asserts the lexer never panics and always terminates, and that
// its allocation-free keyword recognition agrees with upper-casing the
// text and looking it up.
func FuzzLex(f *testing.F) {
	f.Add("SELECT a FROM t -- comment\n/* block */ WHERE x = 'lit'")
	f.Add("$$$ ::: ??? \"unterminated")
	f.Add("ſelect")
	f.Add("lımıt")
	f.Add("Rollback")
	f.Add("xſ")
	f.Add("<> != || <= >= |")
	f.Fuzz(func(t *testing.T, src string) {
		upper := strings.ToUpper(src)
		if kw, ok := keyword(src); ok != (keywords[upper] != "") || (ok && kw != upper) {
			t.Fatalf("keyword(%q) = %q, %v; strings.ToUpper gives %q", src, kw, ok, upper)
		}
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("token stream for %q does not end in EOF", src)
		}
	})
}

// TestKeywordTable: every keyword is found in any letter case, and no word
// one byte away from a keyword is taken for one.
func TestKeywordTable(t *testing.T) {
	for _, kw := range keywordList {
		for _, w := range []string{kw, strings.ToLower(kw), strings.ToLower(kw[:1]) + kw[1:]} {
			if got, ok := keyword(w); !ok || got != kw {
				t.Errorf("keyword(%q) = %q, %v, want %q", w, got, ok, kw)
			}
		}
		for i := 0; i < len(kw); i++ {
			for _, c := range []byte{'X', '_', '1', kw[i] + 1} {
				w := kw[:i] + string(c) + kw[i+1:]
				if _, ok := keyword(w); ok != (keywords[w] != "") {
					t.Errorf("keyword(%q) = %v", w, ok)
				}
			}
		}
		for _, w := range []string{kw + "S", kw[1:], kw[:len(kw)-1]} {
			if _, ok := keyword(w); ok != (keywords[w] != "") {
				t.Errorf("keyword(%q) = %v", w, ok)
			}
		}
	}
}
