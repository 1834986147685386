package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The figure goldens pin every non-timing value that Figures 2, 3, 5, 8
// and 9 print, at full float64 precision, one line per cell, each line
// prefixed by its figure. A change to the clustering or scoring path that
// moves any of them moves a line. Regenerate a scale's file with
//
//	go test ./internal/experiments -run 'Figure(2|3|5|8|9)Shapes' -update
//	go test -tags medium ./internal/experiments -run FigureMedium -update
var update = flag.Bool("update", false, "rewrite the figure goldens in testdata")

// checkGolden compares got, the lines of figure fig, with fig's lines in
// testdata/file; -update replaces them and keeps every other figure's.
func checkGolden(t *testing.T, file, fig string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	data, err := os.ReadFile(path)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	var want, rest []string
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, fig+" "):
			want = append(want, line)
		default:
			rest = append(rest, line)
		}
	}
	if *update {
		all := append(rest, got...)
		slices.SortStableFunc(all, func(a, b string) int {
			return strings.Compare(strings.Fields(a)[0], strings.Fields(b)[0])
		})
		if err := os.WriteFile(path, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d golden lines, want %d", fig, len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got %s\nwant %s", fig, i+1, got[i], want[i])
		}
	}
}

// goldenLine joins fields with spaces, printing floats at full precision.
func goldenLine(fields ...any) string {
	s := make([]string, len(fields))
	for i, f := range fields {
		if x, ok := f.(float64); ok {
			s[i] = strconv.FormatFloat(x, 'g', -1, 64)
		} else {
			s[i] = strings.ReplaceAll(fmt.Sprint(f), " ", "_")
		}
	}
	return strings.Join(s, " ")
}

func fig2Golden(points []Fig2Point) []string {
	var out []string
	for _, p := range points {
		out = append(out, goldenLine("fig2", p.Dataset, p.Method, p.K, p.Error, p.Verbosity))
	}
	return out
}

func fig3Golden(points []Fig3Point) []string {
	var out []string
	for _, p := range points {
		out = append(out, goldenLine("fig3", p.Dataset, p.K, p.ReproductionError, p.SynthesisError, p.MarginalDeviation))
	}
	return out
}

func fig5Golden(points []Fig5Point) []string {
	var out []string
	for _, p := range points {
		out = append(out, goldenLine("fig5", p.K, p.NaiveError, p.LaserlightPlus, p.MTVPlus, p.LaserlightAlone, p.MTVAlone))
	}
	return out
}

func fig8Golden(r *Fig8Result) []string {
	out := []string{goldenLine("fig8", "classical", r.Budget, r.ClassicalError)}
	for _, p := range r.Mixture {
		out = append(out, goldenLine("fig8", p.K, p.Error))
	}
	return out
}

func fig9Golden(r *Fig9Result) []string {
	out := []string{goldenLine("fig9", "refs", r.NaiveLLRef, r.ClassicalLLRef, r.NaiveMTVRef, r.ClassicalMTVRef)}
	for _, p := range r.Points {
		out = append(out, goldenLine("fig9", p.K, p.NaiveMixtureLL, p.LaserlightScaled, p.NaiveMixtureMTV, p.MTVScaled))
	}
	return out
}
