package logr

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"logr/internal/workload"
)

// TestRecompressGoldenDigest pins what a chain of Recompress steps returns
// on two generated streams, so a rewrite of the incremental path is held
// to its old output bit for bit. Every step recompresses the previous
// step's summary; the steps cover deltas that add new distinct vectors,
// deltas of increments on known vectors only, and an empty delta. Each step
// records its Err bits, K, per-part totals and Incremental(); the stream's
// lines are hashed into the pinned digest.
func TestRecompressGoldenDigest(t *testing.T) {
	toEntries := func(raw []workload.LogEntry) []Entry {
		out := make([]Entry, len(raw))
		for i, e := range raw {
			out[i] = Entry{SQL: e.SQL, Count: e.Count}
		}
		return out
	}
	streams := []struct {
		name    string
		entries []Entry
		digest  string
	}{
		{"usbank", toEntries(workload.USBank(workload.USBankConfig{TotalQueries: 40000, DistinctTarget: 500, Seed: 3})), "0a2511e0831b9b8a5935e9ad55491657396ea67dc749ce63968826c0e1558d8c"},
		{"pocketdata", toEntries(workload.PocketData(workload.PocketDataConfig{TotalQueries: 40000, DistinctTarget: 300, Seed: 4})), "babe1d5a06a1e45fd740d2fb1b3da5f2a4163b1d6c44f3dec72bae45834e9050"},
	}
	opts := RecompressOptions{CompressOptions: CompressOptions{Clusters: 8, Seed: 1}}
	for _, st := range streams {
		n := len(st.entries)
		cuts := []int{n * 6 / 10, n * 7 / 10, n * 85 / 100, n}
		// repeats re-appends every step-th already-appended entry: a delta of
		// increments on known vectors only
		repeats := func(upto, step int) []Entry {
			var out []Entry
			for i := 0; i < upto; i += step {
				out = append(out, Entry{SQL: st.entries[i].SQL, Count: 1 + i%5})
			}
			return out
		}
		w := FromEntries(st.entries[:cuts[0]])
		s, err := w.Compress(opts.CompressOptions)
		if err != nil {
			t.Fatal(err)
		}
		steps := []struct {
			kind  string // "new", "incr" or "none"
			delta []Entry
		}{
			{"new", st.entries[cuts[0]:cuts[1]]},
			{"incr", repeats(cuts[1], 7)},
			{"none", nil},
			{"new", st.entries[cuts[1]:cuts[2]]},
			{"incr", repeats(cuts[2], 3)},
			{"new", st.entries[cuts[2]:cuts[3]]},
		}
		var lines []string
		for i, step := range steps {
			before := s.Epoch()
			w.Append(step.delta)
			next, err := w.Recompress(s, opts)
			if err != nil {
				t.Fatalf("%s step %d: %v", st.name, i, err)
			}
			grew := next.Epoch().Distinct > before.Distinct
			queries := next.Epoch().TotalQueries > before.TotalQueries
			if want := step.kind == "new"; grew != want || queries != (step.kind != "none") {
				t.Fatalf("%s step %d (%s): distinct %d → %d, queries %d → %d", st.name, i, step.kind,
					before.Distinct, next.Epoch().Distinct, before.TotalQueries, next.Epoch().TotalQueries)
			}
			totals := make([]string, len(next.c.Parts))
			for j, p := range next.c.Parts {
				totals[j] = fmt.Sprint(p.Total())
			}
			lines = append(lines, fmt.Sprintf("%d %s incremental=%v K=%d err=%016x parts=[%s]", i, step.kind,
				next.Incremental(), next.Clusters(), math.Float64bits(next.Error()), strings.Join(totals, " ")))
			s = next
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))
		if got != st.digest {
			t.Errorf("%s: Recompress digest %s, want %s; steps:\n%s", st.name, got, st.digest, strings.Join(lines, "\n"))
		}
	}
}
