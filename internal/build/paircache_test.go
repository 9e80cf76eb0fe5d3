package build

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func testBlocks(n int) []MatchBlock {
	out := make([]MatchBlock, n)
	for i := range out {
		out[i] = MatchBlock{SeqA: 0, PosA: i, SeqB: 1, PosB: i, Len: 16}
	}
	return out
}

// constCompute returns a compute that yields n test blocks.
func constCompute(n int) func() ([]MatchBlock, PairStats, error) {
	return func() ([]MatchBlock, PairStats, error) { return testBlocks(n), PairStats{Blocks: n}, nil }
}

// TestPairCacheSingleFlight: many concurrent Gets of one uncomputed key run
// compute exactly once and all observe the same blocks.
func TestPairCacheSingleFlight(t *testing.T) {
	c := NewPairCache(1<<20, nil, "")
	var computes int32
	gate := make(chan struct{})

	const waiters = 16
	got := make([][]MatchBlock, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blocks, _, _, err := c.Get(context.Background(), "a", "b", 15, 10, func() ([]MatchBlock, PairStats, error) {
				atomic.AddInt32(&computes, 1)
				<-gate // hold every other Get in the pending state
				return testBlocks(3), PairStats{Blocks: 3}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = blocks
		}(i)
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	for i, blocks := range got {
		if len(blocks) != 3 {
			t.Fatalf("waiter %d got %d blocks", i, len(blocks))
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", st.Hits, st.Misses, waiters-1)
	}
}

// TestPairCacheComputeFailure: a failed compute surfaces its error to the
// owner, wakes waiters to retry, and leaves no residue.
func TestPairCacheComputeFailure(t *testing.T) {
	c := NewPairCache(1<<20, nil, "")
	boom := errors.New("boom")
	if _, _, _, err := c.Get(context.Background(), "a", "b", 15, 10, func() ([]MatchBlock, PairStats, error) {
		return nil, PairStats{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("failed compute left %+v", st)
	}
	// The failed key recomputes on the next Get.
	if _, _, hit, err := c.Get(context.Background(), "a", "b", 15, 10, constCompute(1)); err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v", hit, err)
	}
}

// TestPairCacheContextCanceledWaiter: a waiter whose context dies while an
// owner computes returns the context error without corrupting the entry.
func TestPairCacheContextCanceledWaiter(t *testing.T) {
	c := NewPairCache(1<<20, nil, "")
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, _, err := c.Get(context.Background(), "a", "b", 15, 10, func() ([]MatchBlock, PairStats, error) {
			close(started)
			<-gate
			return testBlocks(2), PairStats{}, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.Get(ctx, "a", "b", 15, 10, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v", err)
	}
	close(gate)
	<-done
	// The owner's publish must be intact after the waiter bailed.
	blocks, _, hit, err := c.Get(context.Background(), "a", "b", 15, 10, nil)
	if err != nil || !hit || len(blocks) != 2 {
		t.Fatalf("entry corrupted after canceled waiter: hit=%v err=%v blocks=%d", hit, err, len(blocks))
	}
}

// TestPairCacheEvictedBlocksUnchanged: an entry evicted while a reader holds
// its blocks leaves those blocks as they were, and the next Get of its key
// recomputes.
func TestPairCacheEvictedBlocksUnchanged(t *testing.T) {
	c := NewPairCache(2*(matchBlockCost*8+64), nil, "") // room for two 8-block entries
	held, _, _, err := c.Get(context.Background(), "a", "b", 15, 10, constCompute(8))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]MatchBlock(nil), held...)
	for _, b := range []string{"c", "d", "e"} {
		if _, _, _, err := c.Get(context.Background(), "a", b, 15, 10, constCompute(8)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 2 {
		t.Fatalf("after filling: %+v, want 2 evictions and 2 entries", st)
	}
	if !reflect.DeepEqual(held, want) {
		t.Fatal("evicting an entry changed the blocks a reader holds")
	}
	if _, _, hit, err := c.Get(context.Background(), "a", "b", 15, 10, constCompute(8)); err != nil || hit {
		t.Fatalf("evicted key: hit=%v err=%v, want a recompute", hit, err)
	}
}

// TestPairCacheResidentWithinCapacity: after every Get the resident bytes fit
// the capacity. An entry larger than the whole capacity is returned to its
// caller but not kept; a hit moves its entry to the LRU front.
func TestPairCacheResidentWithinCapacity(t *testing.T) {
	const capacity = 1000
	c := NewPairCache(capacity, nil, "")
	sizes := []int{3, 10, 30, 1, 5, 24, 2, 2, 40, 7}
	for round := 0; round < 3; round++ {
		for i, n := range sizes {
			blocks, _, _, err := c.Get(context.Background(), "a", fmt.Sprint("b", i), 15, 10, constCompute(n))
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks) != n {
				t.Fatalf("key %d: %d blocks, want %d", i, len(blocks), n)
			}
			if st := c.Stats(); st.Bytes > capacity {
				t.Fatalf("round %d key %d: %d resident bytes exceed capacity %d", round, i, st.Bytes, capacity)
			}
		}
	}
	// LRU order: touching the oldest small entry keeps it resident across
	// an insert that forces an eviction.
	c = NewPairCache(3*(matchBlockCost+64), nil, "")
	for _, b := range []string{"x", "y", "z"} {
		if _, _, _, err := c.Get(context.Background(), "a", b, 15, 10, constCompute(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, hit, _ := c.Get(context.Background(), "a", "x", 15, 10, nil); !hit {
		t.Fatal("resident entry missed")
	}
	if _, _, _, err := c.Get(context.Background(), "a", "w", 15, 10, constCompute(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, hit, _ := c.Get(context.Background(), "a", "x", 15, 10, constCompute(1)); !hit {
		t.Fatal("most recently used entry was evicted")
	}
	if _, _, hit, _ := c.Get(context.Background(), "a", "y", 15, 10, constCompute(1)); hit {
		t.Fatal("least recently used entry survived")
	}
}

// TestPairCacheModel drives random concurrent Gets over a small key space at
// a capacity that keeps evicting, and checks the cache against its model:
// compute for a key never runs concurrently with itself, every result equals
// compute(key), resident bytes fit the capacity, and hits + misses equals
// the number of Gets that returned a result.
func TestPairCacheModel(t *testing.T) {
	const (
		goroutines = 8
		gets       = 300
		keys       = 6
	)
	want := func(key int) []MatchBlock { return testBlocks(1 + 3*key) }
	capacity := 2 * (matchBlockCost*(1+3*keys) + 64)
	c := NewPairCache(capacity, nil, "")
	var running [keys]atomic.Int32
	var served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			for i := 0; i < gets; i++ {
				key := rng.Intn(keys)
				ctx := context.Background()
				if rng.Intn(4) == 0 {
					ctx = canceled
				}
				blocks, _, _, err := c.Get(ctx, "a", fmt.Sprint("b", key), 15, 10, func() ([]MatchBlock, PairStats, error) {
					if n := running[key].Add(1); n != 1 {
						t.Errorf("key %d: %d computes at once", key, n)
					}
					for y := 0; y < 20; y++ {
						runtime.Gosched() // widen the window another Get could overlap
					}
					running[key].Add(-1)
					return want(key), PairStats{}, nil
				})
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("Get: %v", err)
					}
					continue
				}
				served.Add(1)
				if !reflect.DeepEqual(blocks, want(key)) {
					t.Errorf("key %d: wrong blocks", key)
				}
				if st := c.Stats(); st.Bytes > capacity {
					t.Errorf("%d resident bytes exceed capacity %d", st.Bytes, capacity)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != served.Load() {
		t.Fatalf("hits %d + misses %d != %d Gets served", st.Hits, st.Misses, served.Load())
	}
	if st.Evictions == 0 {
		t.Fatal("capacity never forced an eviction")
	}
}

// TestCohortMatchesMatchesAllPairMatches: for any order of the cohort's
// names, CohortMatches through a shared pair cache returns exactly
// AllPairMatches' blocks and stats for the sequences in that order, and a
// reordered cohort is served wholly from the cache. One assembly is a
// rotation of another, so its blocks are not colinear and a pair remapped
// from the swapped orientation must be re-sorted.
func TestCohortMatchesMatchesAllPairMatches(t *testing.T) {
	names, seqs := testAssemblies(t, 5000, 4)
	half := len(seqs[0]) / 2
	names = append(names, "rotated")
	seqs = append(seqs, append(append([]byte(nil), seqs[0][half:]...), seqs[0][:half]...))
	c := NewPairCache(64<<20, nil, "")
	pair := func(ctx context.Context, a, b string, seqA, seqB []byte) ([]MatchBlock, PairStats, bool, error) {
		return c.Get(ctx, a, b, 15, 10, func() ([]MatchBlock, PairStats, error) {
			return PairMatches(0, seqA, 1, seqB, 15, 10, nil)
		})
	}
	n := len(names)
	reversed := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
	}
	orders := [][]int{nil, reversed}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		orders = append(orders, rng.Perm(n))
	}
	for oi, order := range orders {
		on, os := names, seqs
		if order != nil {
			on, os = make([]string, n), make([][]byte, n)
			for i, p := range order {
				on[i], os[i] = names[p], seqs[p]
			}
		}
		want, wantStats, err := AllPairMatches(context.Background(), os, 15, 10, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, hits, err := CohortMatches(context.Background(), on, os, 0, pair)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: CohortMatches blocks differ from AllPairMatches", order)
		}
		gotStats.MinimizeTime, gotStats.WFATime = 0, 0
		wantStats.MinimizeTime, wantStats.WFATime = 0, 0
		if gotStats != wantStats {
			t.Fatalf("order %v: stats %+v, want %+v", order, gotStats, wantStats)
		}
		wantHits := n * (n - 1) / 2
		if oi == 0 {
			wantHits = 0
		}
		if hits != wantHits {
			t.Fatalf("order %v: %d hits, want %d", order, hits, wantHits)
		}
	}
}
