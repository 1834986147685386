package logr

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestQueryCap: a workload at exactly 2^50 queries compresses into a
// summary that saves and reads back, and one query more is refused — on an
// in-memory and on a durable workload, whose health the refusal leaves
// alone — so no workload produces an artifact ReadSummary rejects.
func TestQueryCap(t *testing.T) {
	const capQueries = 1 << 50
	q := "SELECT a FROM t WHERE b = ?"
	mem := FromEntries(nil)
	durable, err := OpenDir(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for _, w := range []*Workload{mem, durable} {
		if err := w.Append([]Entry{{SQL: q, Count: capQueries - 1}, {SQL: q}}); err != nil {
			t.Fatalf("a batch reaching the cap: %v", err)
		}
		sum, err := w.Compress(CompressOptions{Clusters: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sum.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSummary(&buf)
		if err != nil {
			t.Fatalf("a summary at the cap does not read back: %v", err)
		}
		if got := back.Epoch().TotalQueries; got != capQueries {
			t.Fatalf("summary read back with %d queries, want %d", got, capQueries)
		}
		err = w.Append([]Entry{{SQL: "SELECT c FROM u"}})
		if !errors.Is(err, ErrQueryCap) || !strings.Contains(err.Error(), "2^50") {
			t.Fatalf("one query past the cap: %v, want ErrQueryCap naming 2^50", err)
		}
		if got := w.Queries(); got != capQueries {
			t.Fatalf("a refused batch moved the total to %d", got)
		}
		if err := w.Err(); err != nil {
			t.Fatalf("a refused batch latched into Err: %v", err)
		}
	}
	// a single entry past the cap is refused whole, also at construction
	over := []Entry{{SQL: "SELECT c FROM u"}, {SQL: q, Count: capQueries}}
	if w := FromEntries(over); !errors.Is(w.Err(), ErrQueryCap) || w.Queries() != 0 {
		t.Fatalf("FromEntries past the cap: Err %v, %d queries", w.Err(), w.Queries())
	}
}
