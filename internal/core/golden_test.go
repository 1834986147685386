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
	"logr/internal/feature"
)

// The golden artifacts in testdata are a K = 4, seed-1 Compress of a
// 2,000-query PocketData log (workload.PocketData, seed 1) in both summary
// formats, written before summaries stored integer feature counts:
//   - summary_v2.lgrs, by WriteSummaryBinary (LGRS version 2);
//   - summary_v1.json, by WriteSummary (JSON version 1);
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

// TestGoldenSummaryArtifacts: both golden artifacts load, re-write byte for
// byte in their own format, and estimate every recorded probe to the same
// float64 bits as when they were written.
func TestGoldenSummaryArtifacts(t *testing.T) {
	for _, g := range []struct {
		file  string
		write func(*bytes.Buffer, core.Mixture, *feature.Codebook) error
	}{
		{"summary_v2.lgrs", func(b *bytes.Buffer, m core.Mixture, book *feature.Codebook) error {
			return core.WriteSummaryBinary(b, m, book)
		}},
		{"summary_v1.json", func(b *bytes.Buffer, m core.Mixture, book *feature.Codebook) error {
			return core.WriteSummary(b, m, book)
		}},
	} {
		raw, err := os.ReadFile("testdata/" + g.file)
		if err != nil {
			t.Fatal(err)
		}
		m, book, err := core.ReadSummary(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if m.K() != 4 || m.Total != 2000 {
			t.Fatalf("%s: K %d, total %d; want 4 clusters over 2000 queries", g.file, m.K(), m.Total)
		}
		var out bytes.Buffer
		if err := g.write(&out, m, book); err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Errorf("%s: re-written artifact differs (%d bytes, want %d)", g.file, out.Len(), len(raw))
		}
		probes, bits := readGoldenProbes(t, m.Universe)
		if len(probes) == 0 {
			t.Fatal("no golden probes")
		}
		for i, p := range probes {
			if got := math.Float64bits(m.EstimateCount(p)); got != bits[i] {
				t.Errorf("%s: probe %v estimates %v, want %v", g.file, p.Indices(), m.EstimateCount(p), math.Float64frombits(bits[i]))
			}
		}
	}
}
