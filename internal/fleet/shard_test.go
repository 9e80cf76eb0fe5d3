package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestPairHashOrderIndependent(t *testing.T) {
	if PairHash("hap3", "hap7") != PairHash("hap7", "hap3") {
		t.Fatal("PairHash depends on argument order")
	}
	if PairHash("a", "b") == PairHash("a", "c") {
		t.Fatal("distinct pairs collide trivially")
	}
	// The separator must keep ("ab","c") and ("a","bc") distinct.
	if PairHash("ab", "c") == PairHash("a", "bc") {
		t.Fatal("PairHash concatenation is ambiguous")
	}
}

// TestPairHashDispersesSimilarNames pins the avalanche finalizer: catalogs
// name assemblies hap00, hap01, ... — near-identical strings whose raw
// FNV-1a sums share high bits (the final XOR'd byte is never multiplied),
// which once collapsed every pair onto shard 0. Both shards of a 2-node
// fleet must receive work from such a catalog.
func TestPairHashDispersesSimilarNames(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		counts := make([]int, n)
		for i := 0; i < 12; i++ {
			for j := i + 1; j < 12; j++ {
				a, b := fmt.Sprintf("hap%02d", i), fmt.Sprintf("hap%02d", j)
				counts[OwnerOf(PairHash(a, b), n)]++
			}
		}
		loaded := 0
		for _, c := range counts {
			if c > 0 {
				loaded++
			}
		}
		// 66 pairs over n ≤ 8 shards: a healthy hash loads every shard.
		if loaded != n {
			t.Fatalf("n=%d: only %d of %d shards received pairs (%v)", n, loaded, n, counts)
		}
	}
}

// TestOwnerExactlyOneShard is the sharding property test: every unordered
// pair maps to exactly one shard in [0, n), and shards own contiguous key
// ranges that tile the key space — over sorted random hashes (plus both
// ends of the key space) OwnerOf never decreases and lands on every shard.
func TestOwnerExactlyOneShard(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hashes := []uint64{0, ^uint64(0)}
	for i := 0; i < 4000; i++ {
		hashes = append(hashes, rng.Uint64())
	}
	slices.Sort(hashes)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 61} {
		for trial := 0; trial < 2000; trial++ {
			a := fmt.Sprintf("hap%d", rng.Intn(500))
			b := fmt.Sprintf("hap%d", rng.Intn(500))
			if a == b {
				continue
			}
			h := PairHash(a, b)
			if owner := OwnerOf(h, n); owner < 0 || owner >= n {
				t.Fatalf("n=%d: owner %d out of range for hash %x", n, owner, h)
			}
		}
		seen := make([]bool, n)
		prev := 0
		for _, h := range hashes {
			owner := OwnerOf(h, n)
			if owner < prev {
				t.Fatalf("n=%d: OwnerOf(%x) = %d after shard %d: ranges are not contiguous", n, h, owner, prev)
			}
			seen[owner] = true
			prev = owner
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: no hash landed on shard %d", n, i)
			}
		}
	}
}

// TestShardStableAcrossRebalance checks that shard assignment moves only
// at rebalance boundaries when the node count changes:
//
//   - scaling n → k·n subdivides ranges exactly, so a pair's new owner is
//     always a child of its old range: OwnerOf(h, k·n)/k == OwnerOf(h, n);
//   - growing n → n+1 shifts boundaries by less than one range width, so a
//     pair moves at most one shard forward: new owner ∈ {old, old+1}.
func TestShardStableAcrossRebalance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		h := rng.Uint64()
		for _, n := range []int{1, 2, 3, 4, 6, 8} {
			for _, k := range []int{2, 3, 4} {
				if OwnerOf(h, k*n)/k != OwnerOf(h, n) {
					t.Fatalf("h=%x: OwnerOf(%d)=%d not nested under OwnerOf(%d)=%d",
						h, k*n, OwnerOf(h, k*n), n, OwnerOf(h, n))
				}
			}
			old, grown := OwnerOf(h, n), OwnerOf(h, n+1)
			if grown != old && grown != old+1 {
				t.Fatalf("h=%x: n=%d→%d moved shard %d→%d (want ≤1 step)", h, n, n+1, old, grown)
			}
		}
	}
}
