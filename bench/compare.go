package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// bench compare old.json new.json
//
// One row per workload × end-to-end metric: the base, the new value, their
// ratio, the bound BENCHMARK.json fixes for the metric, and a verdict. A
// side's repeated runs — the records of a `-runs N` document, or a
// comma-separated list of documents — are read as their median, and a
// metric whose runs spread wider than its bound is unresolved, not unchanged.

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// judge compares the runs of one metric on one workload. With several runs
// on a side, the spread of a side is the distance between its quartiles as
// a share of its median (with fewer than four runs: between its extremes).
func judge(base, next []float64, higherBetter bool, bound float64) (b, n, worsening float64, v verdict) {
	b, n = median(base), median(next)
	if b != 0 {
		worsening = (n - b) / b
		if higherBetter {
			worsening = -worsening
		}
	}
	switch {
	case spread(base) > bound || spread(next) > bound:
		v = unresolved
	case worsening > bound:
		v = worse
	case worsening < -bound:
		v = better
	default:
		v = unchanged
	}
	return b, n, worsening, v
}

func spread(xs []float64) float64 {
	if len(xs) >= 4 {
		return quartileSpread(xs)
	}
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return (s[len(s)-1] - s[0]) / median(xs)
}

func readSide(list string) ([]document, error) {
	var docs []document
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// values collects one end-to-end metric of one workload over a side's runs,
// and the side's failed share of attempted operations on that workload.
func values(docs []document, workload, name string) (vals []float64, failedFrac float64) {
	var attempted, failed int64
	for _, d := range docs {
		for _, w := range d.Workloads {
			if w.Name != workload {
				continue
			}
			attempted, failed = attempted+w.Attempted, failed+w.Failed
			if m, ok := w.E2E[name]; ok {
				vals = append(vals, m.Value)
			}
		}
	}
	return vals, frac(float64(failed), float64(attempted))
}

func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "the file that fixes each metric's bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bounds BENCHMARK.json] old.json[,old2.json…] new.json[,new2.json…]")
		return 2
	}
	data, err := os.ReadFile(*bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", *bounds, err)
		return 2
	}
	base, err := readSide(fs.Arg(0))
	if err == nil {
		var next []document
		if next, err = readSide(fs.Arg(1)); err == nil {
			return compare(out, bf, base, next)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compare(out io.Writer, bf benchmarkFile, base, next []document) int {
	code := 0
	fmt.Fprintf(out, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, w := range workloads {
		_, baseFailed := values(base, w.name, "")
		_, nextFailed := values(next, w.name, "")
		for _, m := range bf.EndToEnd {
			bv, _ := values(base, w.name, m.Name)
			nv, _ := values(next, w.name, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			b, n, _, v := judge(bv, nv, m.Better == "higher", m.Bound)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(out, "%-16s %-22s %14.6g %14.6g %9.4f %6.1f%%  %s\n", w.name, m.Name, b, n, frac(n, b), m.Bound*100, v)
		}
		if nextFailed > baseFailed {
			code = 1
			fmt.Fprintf(out, "%-16s %-22s %14.6g %14.6g %9s %7s  %s\n", w.name, "failed_frac", baseFailed, nextFailed, "", "0", worse)
		}
	}
	return code
}
