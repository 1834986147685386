package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/bitvec/bitvectest"
	"logr/internal/cluster"
)

// The dense float path is the oracle for the popcount-native kernels: for a
// fixed Seed, clustering the dense float64 expansion of the distinct vectors
// must produce the identical partition and the identical Reproduction
// Error, across both methods, fixed-K and auto-sweep configurations, and
// Recompress.

// compressDense is Compress with its clustering stage run on the dense
// float64 rows of the distinct vectors instead of the packed vectors:
// k-means by cluster.KMeans, and average linkage over a Hamming triangle
// summed over the dense rows. The auto sweep is shared.
func compressDense(l *Log, opts CompressOptions) (*Compressed, error) {
	k := leafCount(opts)
	points, weights := denseRows(l)
	var asg cluster.Assignment
	switch opts.Method {
	case KMeansMethod:
		asg = cluster.KMeans(points, weights, kmeansOptions(opts, k))
	case HierarchicalMethod:
		asg = denseHammingLinkage(points, weights).Cut(k)
	default:
		return nil, fmt.Errorf("core: unknown method %v", opts.Method)
	}
	return sweep(l, asg, opts)
}

// denseRows returns l's distinct vectors as dense 0/1 rows and their
// multiplicities as weights.
func denseRows(l *Log) (points [][]float64, weights []float64) {
	points = make([][]float64, l.Distinct())
	weights = make([]float64, l.Distinct())
	for i := range points {
		points[i] = bitvectest.Dense(l.Vector(i))
		weights[i] = float64(l.Multiplicity(i))
	}
	return points, weights
}

// denseHammingLinkage fills cluster.UpperTriangle with the normalized
// Hamming distance, mismatches over length, of every pair of dense rows and
// merges it by cluster.Agglomerate with the weighted average-linkage join:
// a merged cluster's distance to any other is the mass-weighted mean of its
// two parts' distances.
func denseHammingLinkage(points [][]float64, weights []float64) *cluster.Dendrogram {
	n := len(points)
	s := cluster.UpperTriangle(n)
	for i := range points {
		for j := i + 1; j < n; j++ {
			ne := 0
			for f := range points[i] {
				if points[i][f] != points[j][f] {
					ne++
				}
			}
			s[i][j] = float64(ne) / float64(len(points[i]))
		}
	}
	mass := append(make([]float64, 0, 2*n), weights...)
	return cluster.Agglomerate(s, func(a, b int) func(int, float64, float64) float64 {
		ma, mb := mass[a], mass[b]
		total := ma + mb
		mass = append(mass, total)
		return func(_ int, da, db float64) float64 { return (ma*da + mb*db) / total }
	})
}

// nearestDense is cluster.NearestBinary's dense oracle: the strict-<
// argmin of the squared distance between each point's dense expansion and
// every centroid, the earliest centroid on a tie.
func nearestDense(pts []bitvec.Vector, cents [][]float64, _ int) []int {
	labels := make([]int, len(pts))
	for i, v := range pts {
		p, bd := bitvectest.Dense(v), math.Inf(1)
		for c, cent := range cents {
			d := 0.0
			for j := range p {
				x := p[j] - cent[j]
				d += x * x
			}
			if d < bd {
				labels[i], bd = c, d
			}
		}
	}
	return labels
}

func oracleLog(seed int64, universe, distinct int) *Log {
	r := rand.New(rand.NewSource(seed))
	l := NewLog(universe)
	for i := 0; i < distinct; i++ {
		v := bitvec.New(universe)
		base := (i % 6) * (universe / 6)
		for j := 0; j < universe/6; j++ {
			if r.Intn(3) == 0 {
				v.Set(base + j)
			}
		}
		if v.IsZero() {
			v.Set(r.Intn(universe))
		}
		l.Add(v, 1+r.Intn(500))
	}
	return l
}

func assertSameCompressed(t *testing.T, got, want *Compressed, ctx string) {
	t.Helper()
	if got.Err != want.Err {
		t.Fatalf("%s: binary Err = %v, dense Err = %v", ctx, got.Err, want.Err)
	}
	if got.Mixture.K() != want.Mixture.K() {
		t.Fatalf("%s: binary K = %d, dense K = %d", ctx, got.Mixture.K(), want.Mixture.K())
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Fatalf("%s: binary assignment differs from dense", ctx)
	}
	for i := range want.Mixture.Components {
		g, w := got.Mixture.Components[i], want.Mixture.Components[i]
		if got.Mixture.Weight(i) != want.Mixture.Weight(i) || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: component %d differs between binary and dense", ctx, i)
		}
	}
}

func TestCompressBinaryMatchesDenseOracle(t *testing.T) {
	for _, method := range []Method{KMeansMethod, HierarchicalMethod} {
		l := oracleLog(21, 120, 90)
		for _, seed := range []int64{1, 7, 99} {
			opts := CompressOptions{K: 6, Method: method, Seed: seed}
			binary, err := Compress(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := compressDense(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameCompressed(t, binary, dense, method.String())
		}
	}
}

func TestCompressBinarySweepMatchesDenseOracle(t *testing.T) {
	for _, method := range []Method{KMeansMethod, HierarchicalMethod} {
		l := oracleLog(22, 90, 70)
		opts := CompressOptions{Method: method, Seed: 3, TargetError: 0.2, MaxK: 8}
		binary, err := Compress(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := compressDense(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCompressed(t, binary, dense, "sweep/"+method.String())
	}
}

func TestCompressBinaryDeterministicAcrossParallelism(t *testing.T) {
	l := oracleLog(23, 100, 80)
	base, err := Compress(l, CompressOptions{K: 5, Seed: 11, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 0} {
		got, err := Compress(l, CompressOptions{K: 5, Seed: 11, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		assertSameCompressed(t, got, base, "parallelism")
	}
}

func TestRecompressBinaryMatchesDenseOracle(t *testing.T) {
	l := oracleLog(24, 100, 60)
	prevCounts := make([]int, l.Distinct())
	for i := range prevCounts {
		prevCounts[i] = l.Multiplicity(i)
	}
	prevB, err := Compress(l, CompressOptions{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prevD, err := compressDense(l, CompressOptions{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCompressed(t, prevB, prevD, "baseline")

	// grow: increments on known shapes plus brand-new distinct vectors
	full := l.Clone()
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 10; i++ {
		full.Add(full.Vector(r.Intn(l.Distinct())), 1+r.Intn(50))
	}
	for i := 0; i < 12; i++ {
		v := bitvec.New(100)
		for j := 0; j < 100; j++ {
			if r.Intn(4) == 0 {
				v.Set(j)
			}
		}
		full.Add(v, 1+r.Intn(20))
	}

	gotB, incB, err := Recompress(prevB, full, prevCounts, CompressOptions{K: 4, Seed: 5}, RecompressOptions{MaxErrorGrowth: -1})
	if err != nil {
		t.Fatal(err)
	}
	gotD, incD, err := recompress(prevD, full, prevCounts, CompressOptions{K: 4, Seed: 5}, RecompressOptions{MaxErrorGrowth: -1}, nearestDense)
	if err != nil {
		t.Fatal(err)
	}
	if !incB || !incD {
		t.Fatalf("expected both paths incremental: binary=%v dense=%v", incB, incD)
	}
	if gotB.Err != gotD.Err {
		t.Fatalf("incremental: binary Err = %v, dense Err = %v", gotB.Err, gotD.Err)
	}
	if len(gotB.Parts) != len(gotD.Parts) {
		t.Fatalf("incremental: binary parts = %d, dense parts = %d", len(gotB.Parts), len(gotD.Parts))
	}
	for i := range gotB.Parts {
		if gotB.Parts[i].Total() != gotD.Parts[i].Total() || gotB.Parts[i].Distinct() != gotD.Parts[i].Distinct() {
			t.Fatalf("incremental: part %d differs between binary and dense", i)
		}
	}
}
