// Package gbwt implements the Graph Burrows-Wheeler Transform (the paper's
// [33]): a haplotype-aware FM-index over *paths* through a pangenome graph.
// Where the classic FM-index indexes one string of base pairs, the GBWT
// indexes multiple sequences of node IDs (haplotype paths). Vg Giraffe uses
// it in the filtering step to extend seed hits only along real haplotypes
// (paper §3, Fig. 4c); the representative Find operation extracted as the
// GBWT kernel is implemented here.
//
// Construction follows the FM-index view: the GBWT of a path set equals an
// FM-index over the reversed paths, reorganized into per-node records. Each
// record stores the node's outgoing edges (a handful, because haplotypes
// rarely diverge — the locality property §5.2 highlights) and, for each
// visit of the node, which edge the haplotype takes next.
package gbwt

import (
	"fmt"
	"sort"

	"pangenomicsbench/internal/fmindex"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// endMarker terminates every path (node ID 0 is invalid in graphs).
const endMarker = 0

// record is the per-node block of the index.
type record struct {
	// succs are the distinct successor node IDs observed after this node in
	// any haplotype (may include endMarker), ascending.
	succs []graph.NodeID
	// offsets[e] is the number of occurrences of succs[e] in records of
	// nodes smaller than this one — the base of the LF-mapping into
	// succs[e]'s record.
	offsets []int32
	// body[i] is the edge index (into succs) taken by the i-th visit of
	// this node in BWT order.
	body []uint16
	// ranks[e][i] = occurrences of edge e in body[0:i*rankRate], sampled.
	ranks [][]int32
	base  uint64 // synthetic address for the cache model
}

const rankRate = 16

// Index is a GBWT over the haplotype paths of a graph.
type Index struct {
	records map[graph.NodeID]*record
}

// Build constructs the GBWT from the embedded paths of g.
func Build(g *graph.Graph) (*Index, error) {
	paths := g.Paths()
	if len(paths) == 0 {
		return nil, fmt.Errorf("gbwt: graph has no paths to index")
	}
	// T = concat over paths of reverse(path) + endMarker. An FM-index over
	// T supports forward extension through the original paths.
	var text []int32
	for _, p := range paths {
		if len(p.Nodes) == 0 {
			return nil, fmt.Errorf("gbwt: path %q is empty", p.Name)
		}
		for i := len(p.Nodes) - 1; i >= 0; i-- {
			text = append(text, int32(p.Nodes[i]))
		}
		text = append(text, endMarker)
	}
	sa := fmindex.SuffixArrayInts(text)

	// BWT over node IDs: bwt[i] = text[sa[i]-1] (wrapping), which in the
	// original path orientation is the *next* node of that visit.
	n := len(text)
	bwt := make([]int32, n)
	first := make([]int32, n) // first symbol of each sorted suffix
	for i, p := range sa {
		if p == 0 {
			bwt[i] = text[n-1]
		} else {
			bwt[i] = text[p-1]
		}
		first[i] = text[p]
	}

	// Slice the BWT into per-node records. Records are packed back to back
	// (as in the real GBWT's byte-aligned record array), which is what
	// gives consecutive-node queries their spatial locality (§5.2).
	idx := &Index{records: make(map[graph.NodeID]*record)}
	nextBase := uint64(1 << 20)
	globalOcc := map[graph.NodeID]int32{}
	i := 0
	for i < n {
		sym := first[i]
		j := i
		for j < n && first[j] == sym {
			j++
		}
		if sym != endMarker {
			node := graph.NodeID(sym)
			rec := &record{}
			// Collect successor alphabet of this record.
			seen := map[graph.NodeID]bool{}
			for k := i; k < j; k++ {
				seen[graph.NodeID(bwt[k])] = true
			}
			for s := range seen {
				rec.succs = append(rec.succs, s)
			}
			sort.Slice(rec.succs, func(a, b int) bool { return rec.succs[a] < rec.succs[b] })
			rec.offsets = make([]int32, len(rec.succs))
			for e, s := range rec.succs {
				rec.offsets[e] = globalOcc[s]
			}
			// Body and rank samples.
			edgeOf := make(map[graph.NodeID]uint16, len(rec.succs))
			for e, s := range rec.succs {
				edgeOf[s] = uint16(e)
			}
			rec.body = make([]uint16, j-i)
			rec.ranks = make([][]int32, len(rec.succs))
			nSamples := (j-i)/rankRate + 2
			for e := range rec.ranks {
				rec.ranks[e] = make([]int32, nSamples)
			}
			counts := make([]int32, len(rec.succs))
			for k := i; k < j; k++ {
				local := k - i
				if local%rankRate == 0 {
					for e := range counts {
						rec.ranks[e][local/rankRate] = counts[e]
					}
				}
				e := edgeOf[graph.NodeID(bwt[k])]
				rec.body[local] = e
				counts[e]++
			}
			for e := range counts {
				rec.ranks[e][(j-i-1)/rankRate+1] = counts[e]
			}
			rec.base = nextBase
			nextBase += uint64((j-i)*2 + len(rec.succs)*16 + nSamples*4*len(rec.succs))
			idx.records[node] = rec
		}
		// Update global occurrence counts for LF offsets of later records.
		for k := i; k < j; k++ {
			globalOcc[graph.NodeID(bwt[k])]++
		}
		i = j
	}
	return idx, nil
}

// Validate reports the first record whose node is not a node of g. Every
// successor of a record has a record of its own (Build makes one per
// visited node, and DecodeIndex rejects a successor without one), so this
// covers every node ID the index holds. It allocates only the error.
func (x *Index) Validate(g *graph.Graph) error {
	for id := range x.records {
		if !g.Valid(id) {
			return fmt.Errorf("gbwt: record for node %d, outside the graph's [1,%d]", id, g.NumNodes())
		}
	}
	return nil
}

// State is a search state: a node and a half-open visit range within its
// record. Size reports how many haplotype positions match the searched
// subpath.
type State struct {
	Node   graph.NodeID
	Lo, Hi int32
}

// Size returns the number of matching haplotype occurrences.
func (s State) Size() int { return int(s.Hi - s.Lo) }

// Empty reports whether the state matches nothing.
func (s State) Empty() bool { return s.Hi <= s.Lo }

// Start returns the state matching the single-node sequence (v).
func (x *Index) Start(v graph.NodeID) State {
	rec, ok := x.records[v]
	if !ok {
		return State{Node: v}
	}
	return State{Node: v, Lo: 0, Hi: int32(len(rec.body))}
}

// rank counts occurrences of edge e in body[0:i).
func (r *record) rank(e int, i int32, probe *perf.Probe) int32 {
	ck := i / rankRate
	probe.Load(uintptr(r.base)+uintptr(len(r.body)*2+e*16+int(ck)*4), 4)
	cnt := r.ranks[e][ck]
	for p := ck * rankRate; p < i; p++ {
		probe.Load(uintptr(r.base)+uintptr(p*2), 2)
		if r.body[p] == uint16(e) {
			cnt++
		}
	}
	// Scalar run-length/byte-code decoding work per scanned position — the
	// compressed-record arithmetic that keeps GBWT compute-heavy rather
	// than memory-heavy (§5.2).
	probe.Op(perf.ScalarInt, int(i-ck*rankRate)*3+6)
	return cnt
}

// Extend advances the state through node w: the returned state matches the
// searched sequence followed by w. The LF-mapping touches only this record
// and w's offset — the short, cache-friendly hop chain of §5.2.
func (x *Index) Extend(s State, w graph.NodeID, probe *perf.Probe) State {
	if s.Empty() {
		return State{Node: w}
	}
	rec, ok := x.records[s.Node]
	if !ok {
		return State{Node: w}
	}
	// Find the edge index of w (binary search over a handful of succs —
	// the data-dependent control flow that makes GBWT branch-bound).
	e := sort.Search(len(rec.succs), func(i int) bool { return rec.succs[i] >= w })
	probe.Op(perf.ScalarInt, 3)
	probe.TakeBranch(0xd0, e < len(rec.succs) && rec.succs[e] == w)
	if e == len(rec.succs) || rec.succs[e] != w {
		return State{Node: w}
	}
	lo := rec.offsets[e] + rec.rank(e, s.Lo, probe)
	hi := rec.offsets[e] + rec.rank(e, s.Hi, probe)
	return State{Node: w, Lo: lo, Hi: hi}
}

// Find runs the paper's representative GBWT kernel operation: given a node
// sequence S, it returns the state matching S and the set of possible next
// nodes (successors reachable along at least one haplotype containing S).
func (x *Index) Find(s []graph.NodeID, probe *perf.Probe) (State, []graph.NodeID) {
	if len(s) == 0 {
		return State{}, nil
	}
	st := x.Start(s[0])
	for _, w := range s[1:] {
		probe.Frontend(2)
		st = x.Extend(st, w, probe)
		if st.Empty() {
			return st, nil
		}
	}
	return st, x.successors(st, probe)
}

// successors lists the distinct non-terminator successors within a state.
func (x *Index) successors(s State, probe *perf.Probe) []graph.NodeID {
	rec, ok := x.records[s.Node]
	if !ok || s.Empty() {
		return nil
	}
	var out []graph.NodeID
	for e, succ := range rec.succs {
		if succ == endMarker {
			continue
		}
		if rec.rank(e, s.Hi, probe)-rec.rank(e, s.Lo, probe) > 0 {
			probe.TakeBranch(0xd1, true)
			out = append(out, succ)
		} else {
			probe.TakeBranch(0xd1, false)
		}
	}
	return out
}

// Contains reports whether the node sequence occurs in at least one
// haplotype.
func (x *Index) Contains(s []graph.NodeID, probe *perf.Probe) bool {
	st, _ := x.Find(s, probe)
	return !st.Empty()
}
