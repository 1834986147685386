// Package apps builds the three motivating applications of Section 2 on
// top of LogR-compressed logs: index selection, materialized-view
// candidate selection, and online workload monitoring (drift/intrusion
// detection). Each consumes only the mixture encoding — never the raw log —
// demonstrating the "analytics over the summary" workflow the paper
// targets. Drift reads each component's closed-form probability off its
// integer feature counts (core.Naive.LogProb and Sample).
package apps

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/feature"
)

// IndexSuggestion recommends an index on a column because predicates on it
// dominate the workload.
type IndexSuggestion struct {
	Table     string // best-effort table attribution (FROM feature co-occurrence)
	Predicate string // the WHERE atom text
	// Frequency is the estimated fraction of queries carrying the
	// predicate, per the mixture encoding.
	Frequency float64
	// EstQueries is the estimated absolute query count.
	EstQueries float64
}

// SuggestIndexes ranks single-column predicates by their estimated workload
// frequency (Section 2's index-selection example: "if status = ? occurs in
// 90% of the queries, a hash index on status is beneficial"). Only WHERE
// features are considered; minFrequency filters noise.
func SuggestIndexes(m core.Mixture, book *feature.Codebook, minFrequency float64) []IndexSuggestion {
	var out []IndexSuggestion
	for i := 0; i < book.Size(); i++ {
		f := book.Feature(i)
		if f.Kind != feature.WhereKind {
			continue
		}
		b := bitvec.FromIndices(m.Universe, i)
		freq := m.EstimateMarginal(b)
		if freq < minFrequency {
			continue
		}
		out = append(out, IndexSuggestion{
			Table:      dominantTable(m, book, i),
			Predicate:  f.Text,
			Frequency:  freq,
			EstQueries: m.EstimateCount(b),
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Frequency != out[b].Frequency {
			return out[a].Frequency > out[b].Frequency
		}
		return out[a].Predicate < out[b].Predicate
	})
	return out
}

// dominantTable finds the FROM feature whose estimated co-occurrence with
// feature fi is highest.
func dominantTable(m core.Mixture, book *feature.Codebook, fi int) string {
	best, bestP := "", 0.0
	for j := 0; j < book.Size(); j++ {
		f := book.Feature(j)
		if f.Kind != feature.FromKind || j == fi {
			continue
		}
		p := m.EstimateMarginal(bitvec.FromIndices(m.Universe, fi, j))
		if p > bestP {
			bestP = p
			best = f.Text
		}
	}
	return best
}

// ViewCandidate is a table set worth materializing because the tables are
// estimated to be queried together frequently.
type ViewCandidate struct {
	Tables    []string
	Frequency float64
}

// SuggestViews ranks pairs of FROM tables by their estimated co-occurrence
// (Section 2's materialized-view example: joins that appear frequently are
// materialization candidates). The mixture estimate is what makes this
// workable: a single naive encoding would hallucinate cross-workload joins
// that never happen (Section 5's anti-correlation argument).
func SuggestViews(m core.Mixture, book *feature.Codebook, minFrequency float64) []ViewCandidate {
	var tables []int
	for i := 0; i < book.Size(); i++ {
		if book.Feature(i).Kind == feature.FromKind {
			tables = append(tables, i)
		}
	}
	var out []ViewCandidate
	for a := 0; a < len(tables); a++ {
		for b := a + 1; b < len(tables); b++ {
			p := m.EstimateMarginal(bitvec.FromIndices(m.Universe, tables[a], tables[b]))
			if p < minFrequency {
				continue
			}
			out = append(out, ViewCandidate{
				Tables:    []string{book.Feature(tables[a]).Text, book.Feature(tables[b]).Text},
				Frequency: p,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		return strings.Join(out[i].Tables, ",") < strings.Join(out[j].Tables, ",")
	})
	return out
}

// DriftReport quantifies how far a window of queries strays from a baseline
// encoding. It is also the score part of logrd's GET /drift body, so the
// JSON tags are wire names.
type DriftReport struct {
	// Score is the window's excess surprisal in nats/query: the mean
	// −log P(q | baseline) over the window minus the same expectation over
	// the baseline's own traffic. ≈ 0 when the window follows the baseline
	// workload; strongly positive under injected or shifted workloads.
	Score float64 `json:"score"`
	// NoveltyRate is the fraction of window queries the baseline assigns
	// (near-)zero probability — unseen features or never-seen shapes.
	NoveltyRate float64 `json:"novelty_rate"`
	// Alert is set when Score or NoveltyRate crosses the detector's
	// thresholds.
	Alert bool `json:"alert"`
}

// DriftDetector monitors a query stream against a compressed baseline
// (Section 2's online-monitoring application; Section 5 motivates mixture
// encodings via exactly this misuse/workload-injection scenario). It scores
// and samples every component through the closed form of its naive
// encoding, read straight off the summary's integer feature counts.
type DriftDetector struct {
	baseline core.Mixture
	// calibratedNLL is E[−log P(Q | baseline)] under the baseline model,
	// estimated by sampling the mixture at construction.
	calibratedNLL float64
	// novelNLL is the surprisal charged to zero-probability queries.
	novelNLL float64
	// ScoreThreshold triggers an alert (excess nats/query; default 5).
	ScoreThreshold float64
	// NoveltyThreshold triggers an alert (fraction; default 0.05).
	NoveltyThreshold float64
}

// NewDriftDetectorAt prepares a detector whose baseline is lifted onto a
// possibly larger feature universe before calibration — the segmented
// sliding-window case, where the scored window was encoded after the
// baseline range and may carry features the baseline predates. Grown
// features have zero marginal in every component, so windows using them
// score as novel. universe values not above the baseline's are ignored.
func NewDriftDetectorAt(baseline core.Mixture, universe int) *DriftDetector {
	if universe > baseline.Universe {
		baseline = baseline.Grow(universe)
	}
	return NewDriftDetector(baseline)
}

// NewDriftDetector prepares a detector from a baseline encoding and
// calibrates its expected surprisal by sampling the encoding itself (no
// raw log needed — the summary is the baseline). A baseline with no
// components takes no calibration draws and scores every query as novel.
func NewDriftDetector(baseline core.Mixture) *DriftDetector {
	d := &DriftDetector{baseline: baseline, ScoreThreshold: 5, NoveltyThreshold: 0.05}
	rng := rand.New(rand.NewSource(1))
	const calibration = 2000
	total := 0.0
	for t := 0; t < calibration && len(baseline.Components) > 0; t++ {
		// draw a component by weight, then a query from it
		x := rng.Float64()
		ci := 0
		for ; ci < len(d.baseline.Components)-1; ci++ {
			x -= d.baseline.Weight(ci)
			if x <= 0 {
				break
			}
		}
		q := d.baseline.Components[ci].Sample(rng, d.baseline.Universe)
		if p := d.prob(q); p > 0 {
			total += -math.Log(p)
		}
	}
	d.calibratedNLL = total / calibration
	d.novelNLL = d.calibratedNLL + 40
	return d
}

// prob returns the mixture likelihood of a query vector.
func (d *DriftDetector) prob(q bitvec.Vector) float64 {
	p := 0.0
	for ci, c := range d.baseline.Components {
		p += d.baseline.Weight(ci) * math.Exp(c.LogProb(q))
	}
	return p
}

// Check scores a window of queries against the baseline. extraNovel counts
// additional window queries that could not even be encoded against the
// baseline's feature universe (they carry never-seen features); they are
// charged the novelty surprisal.
func (d *DriftDetector) Check(window *core.Log, extraNovel int) DriftReport {
	if window.Total()+extraNovel == 0 {
		return DriftReport{}
	}
	novel := extraNovel
	nll := float64(extraNovel) * d.novelNLL
	for i := 0; i < window.Distinct(); i++ {
		q := window.Vector(i)
		w := float64(window.Multiplicity(i))
		p := d.prob(q)
		if p <= 1e-300 {
			novel += window.Multiplicity(i)
			nll += w * d.novelNLL
			continue
		}
		nll += w * -math.Log(p)
	}
	n := float64(window.Total() + extraNovel)
	rep := DriftReport{
		Score:       nll/n - d.calibratedNLL,
		NoveltyRate: float64(novel) / n,
	}
	rep.Alert = rep.Score > d.ScoreThreshold || rep.NoveltyRate > d.NoveltyThreshold
	return rep
}
