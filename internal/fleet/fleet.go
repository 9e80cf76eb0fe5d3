// Package fleet distributes PGGB's all-vs-all pair matching — the
// dominant wall-clock cost of graph construction — across a
// coordinator/worker fleet. A Coordinator owns a node registry with
// heartbeats and per-node config push; each Worker owns a contiguous key
// range of the canonical pair-hash space and serves pair-match RPCs out of
// its own build.PairCache, so overlapping cohorts skip redundant quadratic
// matching across processes, not just within one. The coordinator fans a
// cohort out with build.CohortMatches, the same pair loop, remap and merge
// a single-process serve build runs.
//
// Determinism contract: a pair's match blocks depend only on the two
// sequences and the (w,k)-minimizer scheme (build.PairMatches is
// deterministic), and the coordinator merges per-pair results in canonical
// pair order — so a fleet build is byte-identical to a single-process
// build regardless of node count, routing, mid-build worker death, or
// which node ultimately computed each pair. Liveness only moves work; it
// never changes results.
//
// Transports are stdlib-only: net/http with JSON bodies for real worker
// daemons (pgbench fleet-worker), and an in-process loopback for tests,
// soak chaos, and single-binary fleets.
package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/obs"
)

// ErrUnknownAssembly reports that a worker was asked to match an assembly
// name it has no sequence for; the coordinator reacts by re-pushing its
// catalog to that node and retrying.
var ErrUnknownAssembly = errors.New("fleet: unknown assembly")

// ErrNoLiveNodes reports that every registered node is dead (or none were
// ever added), so a task cannot be placed anywhere.
var ErrNoLiveNodes = errors.New("fleet: no live nodes")

// ErrNodeDown is returned by a killed loopback transport — the in-process
// stand-in for a worker process dying mid-build.
var ErrNodeDown = errors.New("fleet: node down")

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

// KeyRange is one shard's contiguous, inclusive slice of the hash space.
type KeyRange struct {
	Lo, Hi uint64
}

// Contains reports whether h falls inside r.
func (r KeyRange) Contains(h uint64) bool { return h >= r.Lo && h <= r.Hi }

// String renders the range as fixed-width hex for the /fleet admin view.
func (r KeyRange) String() string { return fmt.Sprintf("%016x-%016x", r.Lo, r.Hi) }

// RangeOf returns the key range shard i of n owns: exactly the keys h with
// OwnerOf(h, n) == i.
func RangeOf(i, n int) KeyRange {
	if n <= 1 {
		return KeyRange{Lo: 0, Hi: ^uint64(0)}
	}
	return KeyRange{Lo: rangeLo(i, n), Hi: rangeHi(i, n)}
}

// rangeLo is the smallest h with floor(h·n/2⁶⁴) == i: ceil(i·2⁶⁴ / n).
func rangeLo(i, n int) uint64 {
	if i <= 0 {
		return 0
	}
	q, r := bits.Div64(uint64(i), 0, uint64(n))
	if r != 0 {
		q++
	}
	return q
}

func rangeHi(i, n int) uint64 {
	if i >= n-1 {
		return ^uint64(0)
	}
	return rangeLo(i+1, n) - 1
}

// MatchRequest asks a worker for the canonical match blocks of one
// unordered assembly pair. A and B are canonical (A < B); K and W select
// the minimizer scheme, making distinct schemes distinct cache entries.
type MatchRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	K int    `json:"k"`
	W int    `json:"w"`
}

// MatchResponse carries one pair's match blocks in canonical orientation
// (SeqA = 0 names A, SeqB = 1 names B), plus the matching stats and
// whether the worker's shard cache already held the result. When the
// worker runs with tracing enabled, Trace piggybacks its completed span
// subtree (cache hit/miss, kernel stage timings) so the coordinator can
// graft it under the dispatching span — one cross-process tree per build.
type MatchResponse struct {
	Blocks   []build.MatchBlock `json:"blocks"`
	Stats    build.PairStats    `json:"stats"`
	CacheHit bool               `json:"cache_hit"`
	Trace    *obs.SpanData      `json:"trace,omitempty"`
}

// ConfigPush is the coordinator→worker capability/config push: the full
// assembly catalog the worker may be asked to match and (informationally)
// the key range this worker currently owns.
type ConfigPush struct {
	Names   []string `json:"names"`
	Seqs    [][]byte `json:"seqs"`
	Range   KeyRange `json:"range"`
	Version int      `json:"version"`
}

// PingReply is one heartbeat's worth of worker state: identity, workload
// counters, and shard-cache occupancy, aggregated by the coordinator into
// fleet gauges and the /fleet admin view.
type PingReply struct {
	Name          string   `json:"name"`
	Assemblies    int      `json:"assemblies"`
	ConfigVersion int      `json:"config_version"`
	Range         KeyRange `json:"range"`
	Tasks         int64    `json:"tasks"`
	CacheHits     int64    `json:"cache_hits"`
	CacheMisses   int64    `json:"cache_misses"`
	CacheEntries  int      `json:"cache_entries"`
	CacheBytes    int      `json:"cache_bytes"`
}
