package core

import (
	"math/rand"
	"sync"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

// bruteCount is Γ_b(L) by definition: a containment test of every
// distinct vector.
func bruteCount(l *Log, b bitvec.Vector) int {
	n := 0
	for i, v := range l.vecs {
		if v.Contains(b) {
			n += l.mult[i]
		}
	}
	return n
}

// randomVector sets each of the first used features with probability 1/4;
// features at or past used are never set, so they have no postings.
func randomVector(r *rand.Rand, n, used int) bitvec.Vector {
	v := bitvec.New(n)
	for f := 0; f < used; f++ {
		if r.Intn(4) == 0 {
			v.Set(f)
		}
	}
	return v
}

// randomPattern draws up to three features from the whole universe, so
// some patterns name a feature no vector holds; the empty pattern is
// among them.
func randomPattern(r *rand.Rand, n int) bitvec.Vector {
	b := bitvec.New(n)
	for k := r.Intn(4); k > 0; k-- {
		b.Set(r.Intn(n))
	}
	return b
}

func checkCounts(t *testing.T, r *rand.Rand, l *Log, stage string) {
	t.Helper()
	empty := bitvec.New(l.universe)
	if got := l.Count(empty); got != l.Total() {
		t.Fatalf("%s: empty pattern counts %d, want Total %d", stage, got, l.Total())
	}
	for i := 0; i < 200; i++ {
		b := randomPattern(r, l.universe)
		if got, want := l.Count(b), bruteCount(l, b); got != want {
			t.Fatalf("%s: Count(%v) = %d, want %d", stage, b.Indices(), got, want)
		}
	}
	for f := l.universe - 3; f < l.universe; f++ {
		if got := l.Count(bitvec.FromIndices(l.universe, f)); got != 0 {
			t.Fatalf("%s: feature %d has no postings but counts %d", stage, f, got)
		}
	}
}

// TestCountPostingsProperty holds the posting-list Count to a brute-force
// scan on random logs over universes around a word boundary, before and
// after Add and Merge grow a log whose postings are already built.
func TestCountPostingsProperty(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		r := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 20; trial++ {
			used := n - 3
			l := NewLog(n)
			for i := r.Intn(60); i > 0; i-- {
				l.Add(randomVector(r, n, used), 1+r.Intn(50))
			}
			checkCounts(t, r, l, "fresh")
			if l.postings == nil {
				t.Fatal("Count built no postings")
			}
			for i := 0; i < 20; i++ {
				if i%3 == 0 && l.Distinct() > 0 {
					l.Add(l.Vector(r.Intn(l.Distinct())).Clone(), 1+r.Intn(5)) // a known vector
				} else {
					l.Add(randomVector(r, n, used), 1+r.Intn(5))
				}
			}
			checkCounts(t, r, l, "after Add")
			other := NewLog(n)
			for i := r.Intn(30); i > 0; i-- {
				other.Add(randomVector(r, n, used), 1+r.Intn(50))
			}
			l.Merge(other)
			checkCounts(t, r, l, "after Merge")
		}
	}
}

// TestCountPostingsConcurrentFirst: concurrent first Counts build the
// posting lists once, race-free, and all agree with the scan.
func TestCountPostingsConcurrentFirst(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	l := NewLog(65)
	for i := 0; i < 300; i++ {
		l.Add(randomVector(r, 65, 60), 1+r.Intn(9))
	}
	patterns := make([]bitvec.Vector, 64)
	want := make([]int, len(patterns))
	for i := range patterns {
		patterns[i] = randomPattern(r, 65)
		want[i] = bruteCount(l, patterns[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range patterns {
				j := (i + 16*g) % len(patterns)
				if got := l.Count(patterns[j]); got != want[j] {
					t.Errorf("Count(%v) = %d, want %d", patterns[j].Indices(), got, want[j])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCountAllocs: once the postings are built, Count allocates nothing.
func TestCountAllocs(t *testing.T) {
	l := benchLog(863, 605)
	pat := bitvec.FromIndices(863, 10, 20)
	l.Count(pat)
	if a := testing.AllocsPerRun(100, func() { l.Count(pat) }); a != 0 {
		t.Fatalf("Count allocates %v per call after the first", a)
	}
}

// TestDerivedLogsHaveNoPostings: a log that is never counted builds no
// postings, and the logs Clone, Partition, Project and Grow derive from a
// counted one start without them.
func TestDerivedLogsHaveNoPostings(t *testing.T) {
	l := benchLog(64, 40)
	if l.postings != nil {
		t.Fatal("an uncounted log holds postings")
	}
	l.Count(bitvec.FromIndices(64, 3))
	labels := make([]int, l.Distinct())
	for i := range labels {
		labels[i] = i % 2
	}
	derived := map[string]*Log{
		"Clone":   l.Clone(),
		"Project": l.Project([]int{1, 2, 3}),
		"Grow":    l.Grow(70),
	}
	for i, p := range l.Partition(cluster.Assignment{K: 2, Labels: labels}) {
		derived["Partition"+string(rune('0'+i))] = p
	}
	for name, d := range derived {
		if d.postings != nil {
			t.Errorf("%s returned a log with postings", name)
		}
	}
}
