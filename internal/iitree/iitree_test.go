package iitree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// bruteOverlap collects payloads of intervals overlapping [start, end).
func bruteOverlap(ivs []Interval, start, end int64) []int64 {
	var out []int64
	for _, iv := range ivs {
		if iv.Start < end && iv.End > start {
			out = append(out, iv.Data)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func collect(t *Tree, start, end int64) []int64 {
	var out []int64
	t.Overlap(start, end, nil, func(iv Interval) bool {
		out = append(out, iv.Data)
		return true
	})
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestOverlapMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(200)
		tree := New()
		var ivs []Interval
		for i := 0; i < n; i++ {
			s := int64(rng.Intn(1000))
			e := s + 1 + int64(rng.Intn(50))
			tree.Add(s, e, int64(i))
			ivs = append(ivs, Interval{s, e, int64(i)})
		}
		tree.Build()
		for q := 0; q < 50; q++ {
			s := int64(rng.Intn(1100)) - 50
			e := s + 1 + int64(rng.Intn(80))
			want := bruteOverlap(ivs, s, e)
			got := collect(tree, s, e)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d query [%d,%d): got %d hits, want %d", trial, n, s, e, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d query [%d,%d): got %v want %v", trial, s, e, got, want)
				}
			}
		}
	}
}

func TestOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		tree := New()
		var ivs []Interval
		for i := 0; i < n; i++ {
			s := int64(rng.Intn(100))
			e := s + 1 + int64(rng.Intn(10))
			tree.Add(s, e, int64(i))
			ivs = append(ivs, Interval{s, e, int64(i)})
		}
		tree.Build()
		for q := 0; q < 10; q++ {
			s := int64(rng.Intn(120)) - 10
			e := s + 1 + int64(rng.Intn(20))
			if len(collect(tree, s, e)) != len(bruteOverlap(ivs, s, e)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyStop(t *testing.T) {
	tree := New()
	for i := 0; i < 10; i++ {
		tree.Add(0, 100, int64(i))
	}
	tree.Build()
	n := 0
	tree.Overlap(0, 100, nil, func(Interval) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}

func TestEdgeCases(t *testing.T) {
	tree := New()
	tree.Add(5, 5, 1)  // empty: ignored
	tree.Add(10, 5, 2) // inverted: ignored
	tree.Add(1, 4, 3)
	tree.Build()
	if tree.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (invalid intervals ignored)", tree.Len())
	}
	// Half-open semantics: [1,4) does not overlap [4,5).
	if got := tree.CountOverlaps(4, 5, nil); got != 0 {
		t.Fatalf("half-open overlap = %d", got)
	}
	if got := tree.CountOverlaps(3, 4, nil); got != 1 {
		t.Fatalf("overlap = %d", got)
	}
	// Empty query range.
	if got := tree.CountOverlaps(7, 7, nil); got != 0 {
		t.Fatal("empty query must match nothing")
	}
	// Empty tree.
	empty := New()
	empty.Build()
	if got := empty.CountOverlaps(0, 10, nil); got != 0 {
		t.Fatal("empty tree must match nothing")
	}
}

func TestOverlapBeforeBuildPanics(t *testing.T) {
	tree := New()
	tree.Add(1, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Overlap before Build must panic")
		}
	}()
	tree.Overlap(0, 10, nil, func(Interval) bool { return true })
}

// TestOverlapDoesNotAllocate pins the fixed-array traversal stack: a query
// must not touch the heap (the transclosure issues one per match block
// base, ~170k per small PGGB build).
func TestOverlapDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := New()
	for i := 0; i < 5000; i++ {
		s := int64(rng.Intn(100000))
		tree.Add(s, s+1+int64(rng.Intn(500)), int64(i))
	}
	tree.Build()
	hits := 0
	avg := testing.AllocsPerRun(100, func() {
		hits += tree.CountOverlaps(40000, 41000, nil)
	})
	if hits == 0 {
		t.Fatal("query matched nothing")
	}
	if avg > 0 {
		t.Errorf("Overlap allocated %.0f times per query; want 0", avg)
	}
}
