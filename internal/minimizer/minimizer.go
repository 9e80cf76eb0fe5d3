// Package minimizer implements (w,k)-minimizer seeding, the first stage of
// every mapping pipeline in the paper (Fig. 1.1). Seq2Graph tools use the
// same minimizer computation as Seq2Seq tools but index the graph's
// haplotype paths, which enlarges the index (§2.1).
package minimizer

import (
	"fmt"
	"sort"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// Minimizer is one selected k-mer.
type Minimizer struct {
	Pos  int    // start position in the sequence
	Hash uint64 // hashed k-mer value
}

// hashKmer mixes a 2-bit packed k-mer with a 64-bit finalizer
// (splitmix64-style) so minimizer selection is pseudo-random.
func hashKmer(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Scratch holds the per-read state of ComputeInto so the seeding hot path
// reuses it across reads instead of allocating per call: the ring backing
// the sliding-minimum deque. The zero value is ready; the ring grows to the
// largest window seen and stays.
type Scratch struct {
	ring []Minimizer
}

// ringBase is the modelled address of the deque ring in probe streams.
const ringBase = uintptr(0x100000)

// Compute returns the (w,k)-minimizers of seq: for every window of w
// consecutive k-mers, the one with the smallest hash (leftmost on ties).
// K-mers containing N are skipped.
func Compute(seq []byte, k, w int, probe *perf.Probe) ([]Minimizer, error) {
	var s Scratch
	return s.ComputeInto(nil, seq, k, w, probe)
}

// ComputeInto is the allocation-free variant of Compute: minimizers are
// appended to dst (which may be nil or a recycled slice) and the extended
// slice is returned, identical to Compute's output in content and order.
// Steady state performs zero allocations once dst and the ring have grown
// to the working size.
//
// It is one streaming pass, O(len(seq)) whatever w is. Each k-mer's hash
// joins a monotone deque of (pos, hash) candidates whose hashes never
// decrease from front to back: it first pops every back entry with a
// strictly greater hash, so among equal hashes the leftmost stays ahead and
// wins its window, and the front entry leaves once its position falls out of
// the window. From the first full window on, the front is the window's
// minimizer, emitted when it differs from the last one emitted. K-mers
// containing N never enter the deque, nor does a hash of ^uint64(0), which
// no window selects.
//
// The probe records 6 integer ops per k-mer; per window, w integer ops and
// one branch, taken when a minimizer is emitted; and one 16-byte load per
// deque comparison, at the compared entry's slot in the ring.
func (s *Scratch) ComputeInto(dst []Minimizer, seq []byte, k, w int, probe *perf.Probe) ([]Minimizer, error) {
	if k < 1 || k > 31 || w < 1 {
		return dst, fmt.Errorf("minimizer: invalid parameters k=%d w=%d", k, w)
	}
	n := len(seq)
	if n < k {
		return dst, nil
	}
	// The deque never holds more than w entries; a power-of-two ring lets
	// head and tail count up freely and index by mask.
	size := 1
	for size < w {
		size <<= 1
	}
	if len(s.ring) < size {
		s.ring = make([]Minimizer, size)
	}
	ring, rmask := s.ring[:size], size-1
	head, tail := 0, 0 // the deque is ring[head&rmask .. tail&rmask)
	out := dst
	lastPos := -1
	var kmer uint64
	mask := (uint64(1) << uint(2*k)) - 1
	badUntil := -1
	for i := 0; i < n; i++ {
		c := bio.Code(seq[i])
		if c == bio.BaseN {
			badUntil = i + k // k-mers covering position i are invalid
		}
		kmer = ((kmer << 2) | uint64(c&3)) & mask
		if i < k-1 {
			continue
		}
		pos := i - k + 1
		h := hashKmer(kmer)
		probe.Op(perf.ScalarInt, 6)
		win := pos - w + 1 // first k-mer of the window ending at pos
		// Deque positions are distinct and inside the previous window, so
		// only the front one can have just left.
		if head < tail {
			probe.Load(ringBase+uintptr(head&rmask)*16, 16)
			if ring[head&rmask].Pos < win {
				head++
			}
		}
		if i >= badUntil && h != ^uint64(0) {
			for head < tail {
				probe.Load(ringBase+uintptr((tail-1)&rmask)*16, 16)
				if ring[(tail-1)&rmask].Hash <= h {
					break
				}
				tail--
			}
			ring[tail&rmask] = Minimizer{Pos: pos, Hash: h}
			tail++
		}
		if win < 0 {
			continue
		}
		probe.Op(perf.ScalarInt, w)
		if head < tail && ring[head&rmask].Pos != lastPos {
			probe.TakeBranch(0x30, true)
			out = append(out, ring[head&rmask])
			lastPos = ring[head&rmask].Pos
		} else {
			probe.TakeBranch(0x30, false)
		}
	}
	return out, nil
}

// SeqLocation is a minimizer occurrence on a linear reference.
type SeqLocation struct {
	Pos int
}

// SeqIndex is a minimizer index over one linear reference sequence.
type SeqIndex struct {
	k, w int
	hits map[uint64][]SeqLocation
}

// NewSeqIndex indexes ref with (w,k)-minimizers.
func NewSeqIndex(ref []byte, k, w int) (*SeqIndex, error) {
	ms, err := Compute(ref, k, w, nil)
	if err != nil {
		return nil, err
	}
	idx := &SeqIndex{k: k, w: w, hits: make(map[uint64][]SeqLocation)}
	for _, m := range ms {
		idx.hits[m.Hash] = append(idx.hits[m.Hash], SeqLocation{m.Pos})
	}
	return idx, nil
}

// K returns the k-mer size.
func (x *SeqIndex) K() int { return x.k }

// W returns the window size.
func (x *SeqIndex) W() int { return x.w }

// Lookup returns the reference occurrences of a minimizer hash.
func (x *SeqIndex) Lookup(hash uint64) []SeqLocation { return x.hits[hash] }

// GraphLocation is a minimizer occurrence inside a graph node.
type GraphLocation struct {
	Node   graph.NodeID
	Offset int // start offset within the node
}

// GraphIndex is a minimizer index over a pangenome graph. It indexes the
// embedded haplotype paths (so k-mers crossing node boundaries are found,
// and only haplotype-consistent k-mers are stored, as Giraffe does),
// recording each occurrence by its starting node and offset.
//
// The index is append-only per path, like minimap2's per-target index:
// AddPath extends an existing index with one newly embedded haplotype
// without touching what is already stored, and the cross-path occurrence
// dedupe state persists inside the index so an incrementally grown index
// is identical to one rebuilt from scratch over the same paths in the
// same order.
type GraphIndex struct {
	k, w int
	hits map[uint64][]GraphLocation
	// dedupe records every (node, offset, hash) occurrence already stored,
	// so the same physical k-mer reached through several paths is indexed
	// once. Persisting it is what makes AddPath equivalent to a rebuild.
	dedupe map[occKey]struct{}
}

// occKey identifies one stored minimizer occurrence for deduplication.
type occKey struct {
	node graph.NodeID
	off  int
	hash uint64
}

// NewGraphIndex indexes g's haplotype paths.
func NewGraphIndex(g *graph.Graph, k, w int) (*GraphIndex, error) {
	if len(g.Paths()) == 0 {
		return nil, fmt.Errorf("minimizer: graph has no paths to index")
	}
	if k < 1 || k > 31 || w < 1 {
		return nil, fmt.Errorf("minimizer: invalid parameters k=%d w=%d", k, w)
	}
	idx := &GraphIndex{
		k: k, w: w,
		hits:   make(map[uint64][]GraphLocation),
		dedupe: make(map[occKey]struct{}),
	}
	for _, p := range g.Paths() {
		if err := idx.AddPath(g, p); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// AddPath extends the index with one embedded haplotype path of g,
// indexing only that path's minimizers. Occurrences already stored by
// earlier paths are skipped, so calling AddPath for each path in embedding
// order yields an index identical to NewGraphIndex over the final graph.
// The path's nodes must belong to g and must not be mutated afterwards.
func (x *GraphIndex) AddPath(g *graph.Graph, p graph.Path) error {
	seq := g.PathSeq(p)
	ms, err := Compute(seq, x.k, x.w, nil)
	if err != nil {
		return err
	}
	// Map path offsets back to (node, offset).
	starts := make([]int, len(p.Nodes))
	off := 0
	for i, id := range p.Nodes {
		starts[i] = off
		off += len(g.Seq(id))
	}
	ni := 0
	for _, m := range ms {
		for ni+1 < len(starts) && starts[ni+1] <= m.Pos {
			ni++
		}
		loc := GraphLocation{Node: p.Nodes[ni], Offset: m.Pos - starts[ni]}
		kk := occKey{loc.Node, loc.Offset, m.Hash}
		if _, seen := x.dedupe[kk]; seen {
			continue
		}
		x.dedupe[kk] = struct{}{}
		x.hits[m.Hash] = append(x.hits[m.Hash], loc)
	}
	return nil
}

// K returns the k-mer size.
func (x *GraphIndex) K() int { return x.k }

// W returns the window size.
func (x *GraphIndex) W() int { return x.w }

// Lookup returns the graph occurrences of a minimizer hash.
func (x *GraphIndex) Lookup(hash uint64) []GraphLocation { return x.hits[hash] }

// Validate reports the first stored occurrence that does not start inside
// a node of g: its node is not in g, or its offset is at or past the node's
// end. It walks the index once and allocates only the error.
func (x *GraphIndex) Validate(g *graph.Graph) error {
	for _, locs := range x.hits {
		for _, l := range locs {
			if !g.Valid(l.Node) {
				return fmt.Errorf("minimizer: occurrence in node %d, outside the graph's [1,%d]", l.Node, g.NumNodes())
			}
			if n := len(g.Seq(l.Node)); l.Offset >= n {
				return fmt.Errorf("minimizer: occurrence at offset %d of node %d, which has %d bp", l.Offset, l.Node, n)
			}
		}
	}
	return nil
}

// Size returns the number of distinct minimizer hashes stored.
func (x *GraphIndex) Size() int { return len(x.hits) }

// Hashes returns every stored minimizer hash in ascending order (the
// incremental-vs-rebuild differential tests iterate it).
func (x *GraphIndex) Hashes() []uint64 {
	out := make([]uint64, 0, len(x.hits))
	for h := range x.hits {
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
