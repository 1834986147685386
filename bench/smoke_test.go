package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// Every workload, end to end and traced, on inputs a tenth the size and a
// half-second window: each must run clean and report every metric of the
// catalog by name with its unit.
func TestSmoke(t *testing.T) {
	// all five at once, whatever -parallel says: a run is mostly fixed
	// windows and waits for the store to go quiet
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, def := range workloads {
		def, out := def, t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := options{seed: 1, seconds: 0.5, out: out, smoke: true}
			for _, trace := range []string{"0", "1"} {
				o.trace = trace
				rec := runOne(def, o)
				if rec.Failed != 0 || rec.Attempted == 0 {
					t.Errorf("%s trace %s: %d of %d operations failed: %v", def.name, trace, rec.Failed, rec.Attempted, rec.Notes)
				}
				defs, got := endToEnd, rec.E2E
				if trace == "1" {
					defs, got = perLayer, rec.Layers
					if _, err := os.Stat(o.out + "/trace_" + def.name + ".json"); err != nil {
						t.Errorf("%s: the traced run left no span file: %v", def.name, err)
					}
					checkSeparation(t, def.name, rec.Layers)
				}
				if len(got) != len(defs) {
					t.Errorf("%s trace %s: %d metrics reported, the catalog has %d", def.name, trace, len(got), len(defs))
				}
				for _, d := range defs {
					m, ok := got[d.name]
					switch {
					case !ok:
						t.Errorf("%s trace %s: %s is missing", def.name, trace, d.name)
					case m.Unit != d.unit || m.Unit == "":
						t.Errorf("%s trace %s: %s has unit %q, want %q", def.name, trace, d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s trace %s: %s = %v", def.name, trace, d.name, m.Value)
					case m.Value < 0 && d.name != "bench.trace_overhead_frac": // a difference of two runs
						t.Errorf("%s trace %s: %s = %v", def.name, trace, d.name, m.Value)
					case trace == "0" && m.Value == 0:
						t.Errorf("%s: %s = 0: an end-to-end metric is never 0", def.name, d.name)
					}
				}
			}
		}()
	}
}

// checkSeparation holds the workloads to what they are for: the layers a
// batch caller never touches report nothing on compress_batch, and the two
// ingest workloads sit on opposite sides of the encoder's dedup path.
func checkSeparation(t *testing.T, workload string, layers map[string]metric) {
	switch workload {
	case "compress_batch":
		for _, d := range perLayer {
			layer, _, _ := strings.Cut(d.name, ".")
			switch layer {
			case "wal", "store", "server", "client", "gateway":
				if layers[d.name].Value != 0 {
					t.Errorf("compress_batch reports %s = %v; it does not use that layer", d.name, layers[d.name].Value)
				}
			}
		}
	case "ingest_repeat":
		// a smoke window takes in few multiples of the 605 statements
		if hit := layers["workload.dedup_hit_frac"].Value; hit < 0.5 {
			t.Errorf("ingest_repeat: dedup_hit_frac %v, want most statements to repeat", hit)
		}
	case "ingest_novel":
		if hit := layers["workload.dedup_hit_frac"].Value; hit > 0.01 {
			t.Errorf("ingest_novel: dedup_hit_frac %v, want nearly 0", hit)
		}
	}
}

// BENCHMARK.json at the root of the repo and the catalog in metrics.go name
// the same workloads and metrics, with the same units and directions.
func TestBenchmarkFileMatchesTheCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's window is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q), want %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: a why of %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, the catalog has %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d is %s (%s, %s), want %s (%s, %s)", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: bound %v", g.Name, g.Bound)
			}
		}
	}
	same("end-to-end", bf.EndToEnd, endToEnd, true)
	same("per-layer", bf.PerLayer, perLayer, false)
}
