package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// A reader for the Prometheus text exposition the servers publish at
// /metrics: the traced run takes its counts from a scrape before and one
// after the window, as an operator would.

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type scrape []promSample

func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{}
	rest := line
	if open := strings.IndexByte(line, '{'); open >= 0 {
		s.name = line[:open]
		s.labels = map[string]string{}
		i := open + 1
		for line[i] != '}' {
			eq := strings.IndexByte(line[i:], '=')
			if eq < 0 || i+eq+1 >= len(line) || line[i+eq+1] != '"' {
				return s, fmt.Errorf("prom: bad labels in %q", line)
			}
			key := line[i : i+eq]
			i += eq + 2
			var val strings.Builder
			for ; i < len(line) && line[i] != '"'; i++ {
				if line[i] == '\\' && i+1 < len(line) {
					i++
					switch line[i] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(line[i])
					}
					continue
				}
				val.WriteByte(line[i])
			}
			if i >= len(line) {
				return s, fmt.Errorf("prom: unterminated label in %q", line)
			}
			s.labels[key] = val.String()
			i++ // closing quote
			if i < len(line) && line[i] == ',' {
				i++
			}
			if i >= len(line) {
				return s, fmt.Errorf("prom: unterminated labels in %q", line)
			}
		}
		rest = line[i+1:]
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("prom: no value in %q", line)
		}
		s.name, rest = line[:sp], line[sp:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("prom: bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// matches reports whether the sample carries every label=value pair.
func (s promSample) matches(pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if s.labels[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// total sums the series of name whose labels include the given
// label, value pairs.
func (sc scrape) total(name string, pairs ...string) float64 {
	sum := 0.0
	for _, s := range sc {
		if s.name == name && s.matches(pairs) {
			sum += s.value
		}
	}
	return sum
}

// buckets returns the cumulative histogram of name, series summed, as
// (upper edge, count) pairs in ascending order of edge.
func (sc scrape) buckets(name string, pairs []string) (edges, counts []float64) {
	acc := map[float64]float64{}
	for _, s := range sc {
		if s.name != name+"_bucket" || !s.matches(pairs) {
			continue
		}
		le := math.Inf(1)
		if v := s.labels["le"]; v != "+Inf" {
			le, _ = strconv.ParseFloat(v, 64)
		}
		acc[le] += s.value
	}
	for le := range acc {
		edges = append(edges, le)
	}
	sort.Float64s(edges)
	for _, le := range edges {
		counts = append(counts, acc[le])
	}
	return edges, counts
}

// window is what happened between two scrapes of one registry.
type window struct{ before, after scrape }

func (w window) delta(name string, pairs ...string) float64 {
	return w.after.total(name, pairs...) - w.before.total(name, pairs...)
}

// quantile estimates the q-quantile (0..1) of the observations a histogram
// took inside the window, interpolating linearly inside the bucket that
// holds it; the ladders are coarse, so this is a bucket estimate.
func (w window) quantile(name string, q float64, pairs ...string) float64 {
	edges, after := w.after.buckets(name, pairs)
	_, before := w.before.buckets(name, pairs)
	if len(edges) == 0 {
		return 0
	}
	cum := make([]float64, len(after))
	for i := range after {
		cum[i] = after[i]
		if i < len(before) {
			cum[i] -= before[i]
		}
	}
	n := cum[len(cum)-1]
	if n <= 0 {
		return 0
	}
	rank := q * n
	for i, c := range cum {
		if c < rank {
			continue
		}
		if math.IsInf(edges[i], 1) {
			if i == 0 {
				return 0
			}
			return edges[i-1]
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = edges[i-1], cum[i-1]
		}
		if c == below {
			return edges[i]
		}
		return lo + (edges[i]-lo)*(rank-below)/(c-below)
	}
	return edges[len(edges)-1]
}

// scrapeURL fetches and parses base/metrics.
func scrapeURL(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
