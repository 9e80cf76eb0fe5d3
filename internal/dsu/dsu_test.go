package dsu

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// sets counts the disjoint sets as the distinct Find roots.
func sets(d *DSU) int {
	roots := map[int]bool{}
	for i := 0; i < d.Len(); i++ {
		roots[d.Find(i)] = true
	}
	return len(roots)
}

func TestDSUBasic(t *testing.T) {
	d := New(5)
	if sets(d) != 5 || d.Len() != 5 {
		t.Fatal("initial state wrong")
	}
	if !d.Union(0, 1) {
		t.Fatal("first union must merge")
	}
	if d.Union(1, 0) {
		t.Fatal("repeat union must not merge")
	}
	d.Union(2, 3)
	if sets(d) != 3 {
		t.Fatalf("sets = %d, want 3", sets(d))
	}
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Fatal("Same wrong")
	}
	d.Union(1, 3)
	if !d.Same(0, 2) {
		t.Fatal("transitive union failed")
	}
}

// TestDSUMatchesNaive compares against a naive equivalence map.
func TestDSUMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		d := New(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for op := 0; op < 80; op++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				d.Union(a, b)
				relabel(label[a], label[b])
			} else if d.Same(a, b) != (label[a] == label[b]) {
				return false
			}
		}
		// Set counts must agree.
		uniq := map[int]bool{}
		for _, l := range label {
			uniq[l] = true
		}
		return sets(d) == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicBitvector(t *testing.T) {
	b := NewAtomicBitvector(200)
	if b.Len() != 200 || b.Count() != 0 {
		t.Fatal("initial state wrong")
	}
	if !b.Set(63) || !b.Set(64) || !b.Set(199) {
		t.Fatal("fresh Set must return true")
	}
	if b.Set(64) {
		t.Fatal("repeat Set must return false")
	}
	if !b.Get(63) || !b.Get(199) || b.Get(0) {
		t.Fatal("Get wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
}

func TestAtomicBitvectorConcurrent(t *testing.T) {
	const n = 10000
	b := NewAtomicBitvector(n)
	var wg sync.WaitGroup
	wins := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.Set(i) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range wins {
		total += c
	}
	if total != n {
		t.Fatalf("each bit must be won exactly once: %d wins for %d bits", total, n)
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}
