package feature

import (
	"reflect"
	"strconv"
	"testing"

	"logr/internal/regularize"
	"logr/internal/sqlparser"
)

func extract(t *testing.T, c *Codebook, src string) []int {
	t.Helper()
	stmt, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	r := regularize.Regularize(stmt, regularize.Options{ScrubConstants: false, MaxDisjuncts: 16})
	if len(r.Blocks) != 1 {
		t.Fatalf("expected 1 conjunctive block for %q, got %d", src, len(r.Blocks))
	}
	return c.Extract(r.Blocks[0])
}

// TestPaperExample1 reproduces Example 1: the query uses exactly 6 features
// across the three Aligon kinds.
func TestPaperExample1(t *testing.T) {
	c := NewCodebook(AligonScheme)
	idx := extract(t, c, "SELECT _id, sms_type, _time FROM Messages WHERE status =? AND transport_type =?")
	if len(idx) != 6 {
		t.Fatalf("feature count = %d, want 6 (%v)", len(idx), c.Features())
	}
	want := map[Feature]bool{
		{SelectKind, "_id"}:               true,
		{SelectKind, "sms_type"}:          true,
		{SelectKind, "_time"}:             true,
		{FromKind, "messages"}:            true,
		{WhereKind, "status = ?"}:         true,
		{WhereKind, "transport_type = ?"}: true,
	}
	for _, i := range idx {
		if !want[c.Feature(i)] {
			t.Errorf("unexpected feature %v", c.Feature(i))
		}
	}
}

// TestPaperExample3 reproduces Example 3's vocabulary: the 4-query log uses
// exactly 6 distinct features, and q1 = q3.
func TestPaperExample3(t *testing.T) {
	c := NewCodebook(AligonScheme)
	queries := []string{
		"SELECT _id FROM Messages WHERE status = ?",
		"SELECT _time FROM Messages WHERE status = ? AND sms_type = ?",
		"SELECT _id FROM Messages WHERE status = ?",
		"SELECT sms_type, _time FROM Messages WHERE sms_type = ?",
	}
	var vecs [][]int
	for _, q := range queries {
		vecs = append(vecs, extract(t, c, q))
	}
	if c.Size() != 6 {
		t.Fatalf("universe = %d features, want 6: %v", c.Size(), c.Features())
	}
	if !reflect.DeepEqual(vecs[0], vecs[2]) {
		t.Errorf("q1 and q3 should encode identically: %v vs %v", vecs[0], vecs[2])
	}
	counts := []int{3, 4, 3, 4}
	for i, v := range vecs {
		if len(v) != counts[i] {
			t.Errorf("q%d: %d features, want %d", i+1, len(v), counts[i])
		}
	}
}

func TestJoinFeatures(t *testing.T) {
	c := NewCodebook(AligonScheme)
	idx := extract(t, c, "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id WHERE t1.x = ?")
	kinds := map[Kind]int{}
	for _, i := range idx {
		kinds[c.Feature(i).Kind]++
	}
	if kinds[FromKind] != 2 {
		t.Errorf("FROM features = %d, want 2", kinds[FromKind])
	}
	if kinds[WhereKind] != 2 { // join condition + selection predicate
		t.Errorf("WHERE features = %d, want 2", kinds[WhereKind])
	}
}

func TestExtendedScheme(t *testing.T) {
	c := NewCodebook(ExtendedScheme)
	idx := extract(t, c, "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a DESC")
	kinds := map[Kind]int{}
	for _, i := range idx {
		kinds[c.Feature(i).Kind]++
	}
	if kinds[GroupByKind] != 1 || kinds[OrderByKind] != 1 || kinds[AggKind] != 1 {
		t.Errorf("extended kinds = %v", kinds)
	}
	// Aligon scheme must ignore those clauses
	c2 := NewCodebook(AligonScheme)
	idx2 := extract(t, c2, "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a DESC")
	for _, i := range idx2 {
		k := c2.Feature(i).Kind
		if k == GroupByKind || k == OrderByKind || k == AggKind {
			t.Errorf("Aligon scheme extracted extended feature %v", c2.Feature(i))
		}
	}
}

func TestDeterministicIndices(t *testing.T) {
	c := NewCodebook(AligonScheme)
	a := extract(t, c, "SELECT x, y FROM t WHERE p = ? AND q = ?")
	b := extract(t, c, "SELECT x, y FROM t WHERE p = ? AND q = ?")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same query produced different indices: %v vs %v", a, b)
	}
}

// TestIsomorphism checks the encode→decode→encode fixpoint the paper's
// assumption 3 (Section 2.1) requires: a conjunctive query's feature set
// identifies the query up to commutativity.
func TestIsomorphism(t *testing.T) {
	queries := []string{
		"SELECT _id FROM messages WHERE status = ?",
		"SELECT _time, sms_type FROM messages WHERE sms_type = ? AND status = ?",
		"SELECT a FROM t1, t2 WHERE t1.id = t2.id",
		"SELECT name FROM contacts WHERE name LIKE ?",
		"SELECT a FROM t WHERE b IS NOT NULL AND c >= ?",
	}
	c := NewCodebook(AligonScheme)
	var indices [][]int
	for _, q := range queries {
		indices = append(indices, extract(t, c, q))
	}
	for i, idx := range indices {
		v := c.Vector(idx)
		sel, err := c.Decode(v)
		if err != nil {
			t.Fatalf("Decode(%s): %v", queries[i], err)
		}
		r := regularize.Regularize(sel, regularize.Options{ScrubConstants: false})
		if len(r.Blocks) != 1 {
			t.Fatalf("decoded query not conjunctive: %s", sel.SQL())
		}
		re := c.Extract(r.Blocks[0])
		if !reflect.DeepEqual(re, idx) {
			t.Errorf("isomorphism broken for %q:\n decoded: %s\n first=%v second=%v",
				queries[i], sel.SQL(), idx, re)
		}
	}
}

func TestVectorUniverseGrows(t *testing.T) {
	c := NewCodebook(AligonScheme)
	a := extract(t, c, "SELECT a FROM t")
	_ = extract(t, c, "SELECT b, c, d FROM u WHERE e = ?")
	v := c.Vector(a)
	if v.Len() != c.Size() {
		t.Errorf("vector universe = %d, want %d", v.Len(), c.Size())
	}
}

func TestDescribe(t *testing.T) {
	c := NewCodebook(AligonScheme)
	idx := extract(t, c, "SELECT a FROM t WHERE b = ?")
	got := c.Describe(c.Vector(idx))
	for _, want := range []string{"⟨a, SELECT⟩", "⟨t, FROM⟩", "⟨b = ?, WHERE⟩"} {
		if !contains(got, want) {
			t.Errorf("Describe = %q missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (stringIndex(s, sub) >= 0))
}

func stringIndex(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestCodebookIndexAtScale drives the feature → index table through many
// growths: every feature keeps the index it was first given, the same text
// under another kind is another feature, and absent features stay absent.
func TestCodebookIndexAtScale(t *testing.T) {
	c := NewCodebook(AligonScheme)
	if _, ok := c.Lookup(Feature{WhereKind, "x = 0"}); ok {
		t.Fatal("an empty codebook found a feature")
	}
	const n = 20000
	for i := 0; i < n; i++ {
		f := Feature{Kind(i % 3), "x = " + strconv.Itoa(i/3)}
		if got := c.Register(f); got != i {
			t.Fatalf("feature %d registered at index %d", i, got)
		}
		if got := c.Register(f); got != i {
			t.Fatalf("re-registering feature %d returned index %d", i, got)
		}
	}
	if c.Size() != n {
		t.Fatalf("size %d, want %d", c.Size(), n)
	}
	for i := 0; i < n; i++ {
		f := Feature{Kind(i % 3), "x = " + strconv.Itoa(i/3)}
		if got, ok := c.Lookup(f); !ok || got != i || c.Feature(i) != f {
			t.Fatalf("feature %d looked up as (%d, %v)", i, got, ok)
		}
	}
	if _, ok := c.Lookup(Feature{WhereKind, "x = " + strconv.Itoa(n)}); ok {
		t.Fatal("found a feature that was never registered")
	}
}
