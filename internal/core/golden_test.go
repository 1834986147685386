package core_test

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/core"
)

// The golden artifacts in testdata are a K = 4, seed-1 Compress of a
// 2,000-query PocketData log (workload.PocketData, seed 1) in both summary
// formats, written before summaries stored integer feature counts:
//   - summary_v2.lgrs, by WriteSummaryBinary (LGRS version 2);
//   - summary_v1.json, by the JSON writer since deleted (JSON version 1);
//   - summary_estimates.txt, one probe per line: its feature indices and
//     the float64 bits of the summary's EstimateCount for it.

// readGoldenProbes parses summary_estimates.txt.
func readGoldenProbes(t *testing.T, universe int) ([]bitvec.Vector, []uint64) {
	t.Helper()
	f, err := os.Open("testdata/summary_estimates.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var probes []bitvec.Vector
	var bits []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		feats, hex, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed probe line %q", line)
		}
		p := bitvec.New(universe)
		for _, s := range strings.Split(feats, ",") {
			i, err := strconv.Atoi(s)
			if err != nil {
				t.Fatal(err)
			}
			p.Set(i)
		}
		b, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, p)
		bits = append(bits, b)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return probes, bits
}

// TestGoldenSummaryArtifacts: both golden artifacts load and estimate every
// recorded probe to the same float64 bits as when they were written, and
// the LGRS one re-writes byte for byte (nothing writes JSON any more).
func TestGoldenSummaryArtifacts(t *testing.T) {
	for _, file := range []string{"summary_v2.lgrs", "summary_v1.json"} {
		raw, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		m, book, err := core.ReadSummary(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if m.K() != 4 || m.Total != 2000 {
			t.Fatalf("%s: K %d, total %d; want 4 clusters over 2000 queries", file, m.K(), m.Total)
		}
		if strings.HasSuffix(file, ".lgrs") {
			var out bytes.Buffer
			if err := core.WriteSummaryBinary(&out, m, book); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if !bytes.Equal(out.Bytes(), raw) {
				t.Errorf("%s: re-written artifact differs (%d bytes, want %d)", file, out.Len(), len(raw))
			}
		}
		probes, bits := readGoldenProbes(t, m.Universe)
		if len(probes) == 0 {
			t.Fatal("no golden probes")
		}
		for i, p := range probes {
			if got := math.Float64bits(m.EstimateCount(p)); got != bits[i] {
				t.Errorf("%s: probe %v estimates %v, want %v", file, p.Indices(), m.EstimateCount(p), math.Float64frombits(bits[i]))
			}
		}
	}
}
