// Command bench is the repo's one performance yardstick: five named
// workloads, the end-to-end metrics a user of logr would see, and a
// separate traced run that gives the per-layer numbers. bench/README.md
// defines every workload and metric; BENCHMARK.json at the root of the
// repo is the contract a driver runs it by.
//
// From the root of the repo (bench/run.sh builds the module and passes its
// arguments on; `go run -C bench .` works too, from inside bench/):
//
//	bash bench/run.sh                                  every workload, both runs → bench/out/BENCH.json
//	bash bench/run.sh -workload ingest_novel           one workload, the end-to-end run
//	bash bench/run.sh -workload ingest_novel -trace 1  one workload, the traced run
//	bash bench/run.sh compare old.json new.json        verdict per workload × metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is the length of the measured window, the run_seconds of
// BENCHMARK.json. Run length is a constant of the benchmark: both sides of
// a comparison use the same one.
const defaultSeconds = 10

// record is one run of one workload as the benchmark's JSON document and
// the parent of a full-set run see it.
type record struct {
	Name      string            `json:"name"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	E2E       map[string]metric `json:"e2e,omitempty"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Attempted int64             `json:"ops_attempted"`
	Failed    int64             `json:"ops_failed"`
	Notes     []string          `json:"failures,omitempty"`
}

// document is what a full-set run writes.
type document struct {
	Env       map[string]any `json:"env"`
	Workloads []*record      `json:"workloads"`
}

// driverLine is the last line of standard output of a single-workload run.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0", "1", or "" for both (full set only)
	out      string // directory for traces, scratch data and the document
	doc      string // where a full-set run writes its document
	record   string // where a child of a full-set run leaves its record
	smoke    bool
	runs     int // end-to-end runs per workload of a full-set run
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all of them, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.BoolVar(&o.smoke, "smoke", false, "inputs a tenth the size, one set-up: checks that the workloads run and report every metric; the numbers mean nothing")
	flag.StringVar(&o.trace, "trace", "", "0: the end-to-end run, 1: the traced per-layer run (default: 0 for one workload, both for all)")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for span files, scratch data and the result document")
	flag.IntVar(&o.runs, "runs", 1, "end-to-end runs of each workload when all are run, on seeds seed, seed+1, …; compare reads a document's repeated runs as their median")
	flag.StringVar(&o.doc, "doc", "", "where a run of all workloads writes its result document (default: BENCH.json under -out)")
	flag.StringVar(&o.record, "record", "", "also write this run's record to this file")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.runs < 1 || (o.trace != "" && o.trace != "0" && o.trace != "1") {
		flag.Usage()
		os.Exit(2)
	}
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rec := runOne(def, o)
	printRecord(os.Stdout, rec)
	if o.record != "" {
		must(writeJSON(o.record, rec))
	}
	line := driverLine{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]driverMetric{}}
	metrics := rec.E2E
	if o.trace == "1" {
		metrics = rec.Layers
	}
	for name, m := range metrics {
		line.Metrics[name] = driverMetric{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	must(err)
	fmt.Println(string(data))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// execute runs the workload once, traced or not, over a window of the
// given length, in a scratch directory of its own that it removes again.
func execute(def workloadDef, o options, window time.Duration, tr *tracer) *run {
	work, err := filepath.Abs(filepath.Join(o.out, "work", fmt.Sprintf("%s-%d", def.name, os.Getpid())))
	must(err)
	r := &run{name: def.name, seed: o.seed, window: window, work: work, tr: tr, small: o.smoke,
		e2e: map[string]metric{}, layers: map[string]metric{}}
	must(os.MkdirAll(work, 0o755))
	defer os.RemoveAll(work)
	def.run(r)
	r.set("peak_rss_mb", peakRSSMiB(), 1)
	return r
}

// runOne is the single-workload entry. The end-to-end run measures the
// full window with no tracing installed. The traced run measures a quarter
// of it twice — once untraced for reference, once traced — and reports the
// layers of the second and, as the tracing overhead, the difference in
// pace between the two.
func runOne(def workloadDef, o options) *record {
	window := time.Duration(o.seconds * float64(time.Second))
	rec := &record{Name: def.name, Seed: o.seed, Seconds: o.seconds}
	if o.trace != "1" {
		r := execute(def, o, window, nil)
		for _, d := range endToEnd {
			if _, ok := r.e2e[d.name]; !ok {
				r.check(false, "workload did not report %s", d.name)
				r.set(d.name, 0, 0)
			}
		}
		// the layers a workload measures itself, outside the replay (time to
		// build the summary, read latencies, recovery), at full length too
		rec.E2E, rec.Layers = r.e2e, r.layers
		rec.Attempted, rec.Failed, rec.Notes = r.attempted.Load(), r.failed.Load(), r.notes
		return rec
	}
	plain := execute(def, o, window/4, nil)
	tr := newTracer()
	r := execute(def, o, window/4, tr)
	for _, d := range perLayer {
		if _, ok := r.layers[d.name]; !ok {
			r.layer(d.name, 0, 0) // a layer this workload does not use
		}
	}
	r.layer("bench.trace_overhead_frac", 1-frac(r.pace, plain.pace), 1)
	r.layer("bench.failed_frac", frac(float64(r.failed.Load()), float64(r.attempted.Load())), int(r.attempted.Load()))
	must(tr.write(filepath.Join(o.out, "trace_"+def.name+".json")))
	rec.Layers, rec.Notes = r.layers, append(plain.notes, r.notes...)
	rec.Attempted, rec.Failed = plain.attempted.Load()+r.attempted.Load(), plain.failed.Load()+r.failed.Load()
	return rec
}

func printRecord(w *os.File, rec *record) {
	fmt.Fprintf(w, "== %s  seed %d  window %gs\n", rec.Name, rec.Seed, rec.Seconds)
	show := func(defs []metricDef, got map[string]metric) {
		for _, d := range defs {
			if m, ok := got[d.name]; ok {
				fmt.Fprintf(w, "  %-36s %16.6g %-10s n=%d", d.name, m.Value, m.Unit, m.N)
				if m.TailP > 0 {
					fmt.Fprintf(w, "  p%g=%.6g", m.TailP, m.Tail)
				}
				fmt.Fprintln(w)
			}
		}
	}
	show(endToEnd, rec.E2E)
	show(perLayer, rec.Layers)
	fmt.Fprintf(w, "  operations attempted %d, failed %d: failed_frac %g\n", rec.Attempted, rec.Failed, frac(float64(rec.Failed), float64(rec.Attempted)))
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child runs one workload once in a fresh process, so that peak_rss_mb and
// the CPU accounting are that run's own, and returns its record.
func child(self string, o options, workload string, seed int64, trace string) (*record, error) {
	tmp := filepath.Join(o.out, fmt.Sprintf("record-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-out", o.out, "-record", tmp, fmt.Sprintf("-smoke=%t", o.smoke))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %s): %w", workload, seed, trace, err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		return nil, err
	}
	rec := new(record)
	return rec, json.Unmarshal(data, rec)
}

// runAll runs every workload — the end-to-end run `runs` times, on seeds
// seed, seed+1, …, then the traced run once — and writes one document with
// a record per end-to-end run; the first also carries the traced run's
// layers. It returns the exit code: 1 if any operation failed.
func runAll(o options) int {
	self, err := os.Executable()
	must(err)
	doc := document{Env: environment(o)}
	code := 0
	for _, def := range workloads {
		var recs []*record
		for i := 0; i < o.runs && o.trace != "1"; i++ {
			rec, err := child(self, o, def.name, o.seed+int64(i), "0")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			recs = append(recs, rec)
		}
		if o.trace != "0" {
			traced, err := child(self, o, def.name, o.seed, "1")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if len(recs) == 0 {
				recs = append(recs, traced)
			} else {
				first := recs[0]
				if first.Layers == nil {
					first.Layers = map[string]metric{}
				}
				// a layer the full-length run measured keeps that value
				for name, m := range traced.Layers {
					if _, ok := first.Layers[name]; !ok {
						first.Layers[name] = m
					}
				}
				first.Attempted += traced.Attempted
				first.Failed += traced.Failed
				first.Notes = append(first.Notes, traced.Notes...)
			}
		}
		for _, rec := range recs {
			if rec.Failed > 0 {
				code = 1
			}
		}
		doc.Workloads = append(doc.Workloads, recs...)
	}
	path := o.doc
	if path == "" {
		path = filepath.Join(o.out, "BENCH.json")
	}
	must(writeJSON(path, doc))
	fmt.Printf("wrote %s\n", path)
	return code
}

func environment(o options) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	return map[string]any{
		"commit":      commit,
		"go":          runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"kernel":      kernel,
		"seed":        o.seed,
		"runs":        o.runs,
		"run_seconds": o.seconds,
		"warmup_s":    warmup.Seconds(),
		"clients":     clients,
		"flush":       "SyncInterval, 100ms",
	}
}
