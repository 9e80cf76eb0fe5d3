// Package fleet shards PGGB's all-vs-all pair matching across the pair
// caches of a set of in-process workers. A Coordinator routes each
// canonical assembly pair to the Worker whose shard of the 64-bit pair-hash
// space owns it, and that worker serves the pair from its own
// build.PairCache, computing it on a miss. Cohorts are fanned out with
// build.CohortMatches, the same pair loop, remap and merge a
// single-process serve build runs.
//
// Determinism contract: a pair's match blocks depend only on the two
// sequences and the (w,k)-minimizer scheme (build.PairMatches is
// deterministic), and build.CohortMatches merges per-pair results in
// canonical pair order, so a fleet build is byte-identical to a
// single-process build regardless of node count or routing.
package fleet

import (
	"errors"
	"hash/fnv"
	"math/bits"
)

// ErrNoLiveNodes reports that no nodes are registered, so a pair has no
// owner to be routed to.
var ErrNoLiveNodes = errors.New("fleet: no nodes registered")

// PairHash maps one unordered assembly-name pair onto the 64-bit key
// space workers shard. The names are canonicalized (sorted) first, so
// both orientations of a pair land on the same key. The raw FNV-1a sum is
// finished with a splitmix64 avalanche: FNV never multiplies after the
// final XOR, so names differing only in their last byte (hap00/hap01/...)
// would otherwise share high bits — and OwnerOf shards on exactly those
// bits, collapsing realistic catalogs onto one worker.
func PairHash(a, b string) uint64 {
	if a > b {
		a, b = b, a
	}
	h := fnv.New64a()
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche spreading every
// input bit across the whole word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// OwnerOf maps key hash h onto one of n shards using the multiply-shift
// range partition floor(h·n / 2⁶⁴). The mapping is monotone in h
// (shards own contiguous key ranges) and exactly nested across node-count
// multiples: OwnerOf(h, k·n)/k == OwnerOf(h, n), so growing the fleet
// splits ranges at rebalance boundaries without shuffling unrelated pairs.
func OwnerOf(h uint64, n int) int {
	if n <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}
