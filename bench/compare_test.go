package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name       string
		base, next []float64
		higher     bool
		bound      float64
		want       verdict
	}{
		{"lower is better, rose past the bound", []float64{100}, []float64{111}, false, 0.10, worse},
		{"lower is better, rose inside the bound", []float64{100}, []float64{109}, false, 0.10, unchanged},
		{"lower is better, fell past the bound", []float64{100}, []float64{80}, false, 0.10, better},
		{"higher is better, fell past the bound", []float64{100}, []float64{85}, true, 0.10, worse},
		{"higher is better, rose past the bound", []float64{100}, []float64{120}, true, 0.10, better},
		{"medians of repeated runs", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, false, 0.10, worse},
		{"base spreads wider than the bound", []float64{100, 140, 80, 120, 100}, []float64{150, 150, 150, 150, 150}, false, 0.10, unresolved},
		{"new spreads wider than the bound", []float64{100, 100}, []float64{100, 130}, false, 0.10, unresolved},
	} {
		if _, _, _, got := judge(c.base, c.next, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if _, _, worsening, _ := judge([]float64{200}, []float64{150}, true, 0.1); worsening != 0.25 {
		t.Errorf("a quarter fewer of a higher-is-better metric is a worsening of %v, want 0.25", worsening)
	}
}

func doc(workload string, failed int64, metrics map[string]float64) document {
	rec := &record{Name: workload, Attempted: 1000, Failed: failed, E2E: map[string]metric{}}
	for name, v := range metrics {
		rec.E2E[name] = metric{Value: v}
	}
	return document{Workloads: []*record{rec}}
}

func TestCompareRowsAndExitCode(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []boundDef{{"ingest_qps", "higher", 0.10}, {"ack_p50_ms", "lower", 0.10}}}
	base := []document{doc("ingest_repeat", 0, map[string]float64{"ingest_qps": 400000, "ack_p50_ms": 1.5})}

	var out bytes.Buffer
	same := []document{doc("ingest_repeat", 0, map[string]float64{"ingest_qps": 390000, "ack_p50_ms": 1.55})}
	if code := compare(&out, bf, base, same); code != 0 {
		t.Errorf("within the bounds: exit code %d, want 0\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), "unchanged"); n != 2 {
		t.Errorf("want one unchanged row per metric, got %d:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "0.9750") || !strings.Contains(out.String(), "10.0%") {
		t.Errorf("rows lack the ratio with its base or the bound:\n%s", out.String())
	}

	out.Reset()
	slower := []document{doc("ingest_repeat", 0, map[string]float64{"ingest_qps": 300000, "ack_p50_ms": 1.5})}
	if code := compare(&out, bf, base, slower); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a quarter fewer queries per second: exit code %d, want 1 and a worse row\n%s", code, out.String())
	}

	out.Reset()
	failing := []document{doc("ingest_repeat", 3, map[string]float64{"ingest_qps": 400000, "ack_p50_ms": 1.5})}
	if code := compare(&out, bf, base, failing); code != 1 || !strings.Contains(out.String(), "failed_frac") {
		t.Errorf("a rise in failed operations: exit code %d, want 1 and a failed_frac row\n%s", code, out.String())
	}
}
