package align

import (
	"math/bits"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// GBV is the Graph Myers's Bitvector kernel from GraphAligner (paper §3):
// bit-parallel semi-global edit distance of a query chunk (≤64 bp) against a
// possibly cyclic sequence graph. Each node's column states are computed
// with Myers steps; a node's entry state is the element-wise minimum over
// its parents' exit states ("merge operations between parent cells",
// Fig. 4b). Because the graph may be cyclic, a node whose parents improve is
// pushed on a priority queue and recomputed until all scores stabilize —
// the source of the kernel's unpredictable branching (§5.2).
func GBV(g *graph.Graph, query []byte, probe *perf.Probe) (EditResult, error) {
	var ws GBVWorkspace
	return ws.Align(g, query, probe)
}

// GBVWorkspace holds the fixpoint state of one GBV alignment: the priority
// queue, per-node entry/exit column states, and the synthetic address space.
// All buffers are grow-only, so a reused workspace aligns with zero
// steady-state allocations. Results are byte-identical to a fresh-allocation
// run: the manual heap replicates container/heap's sift order exactly, and
// the address space resets to the same base every Align.
type GBVWorkspace struct {
	in      []myersState // entry column per node
	inSet   []bool
	out     []myersState // exit column per node
	hasOut  []bool
	inQueue []bool
	pq      []gbvItem

	as perf.AddrSpace
}

func ensureStates(buf []myersState, n int) []myersState {
	if cap(buf) < n {
		return make([]myersState, n)
	}
	return buf[:n]
}

func ensureBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// Align runs one full alignment of query against g in the workspace. Zero
// steady-state allocations once the buffers have grown.
func (ws *GBVWorkspace) Align(g *graph.Graph, query []byte, probe *perf.Probe) (EditResult, error) {
	eq, err := NewPeq(query)
	if err != nil {
		return EditResult{}, err
	}
	m := len(query)
	n := g.NumNodes()
	if n == 0 {
		return EditResult{Distance: m}, nil
	}

	ws.as.Reset()
	stateBase := ws.as.Alloc(n * (m + 1) * 8)
	stateStride := uintptr((m + 1) * 8)

	ws.in = ensureStates(ws.in, n+1)
	ws.inSet = ensureBools(ws.inSet, n+1)
	ws.out = ensureStates(ws.out, n+1)
	ws.hasOut = ensureBools(ws.hasOut, n+1)
	ws.inQueue = ensureBools(ws.inQueue, n+1)

	ws.pq = ws.pq[:0]
	for id := 1; id <= n; id++ {
		gbvHeapPush(&ws.pq, gbvItem{graph.NodeID(id), m})
		ws.inQueue[id] = true
	}
	best := EditResult{Distance: m}

	for len(ws.pq) > 0 {
		it := gbvHeapPop(&ws.pq)
		id := it.node
		ws.inQueue[id] = false
		probe.Op(perf.ScalarInt, 6) // heap pop bookkeeping
		probe.Frontend(4)           // data-dependent dispatch on queue order

		// Merge the entry column: free start (D[j] = j) ∪ parents' exits.
		merged := initialMyersState(m)
		for _, p := range g.In(id) {
			if !ws.hasOut[p] {
				probe.TakeBranch(0x80, false)
				continue
			}
			probe.TakeBranch(0x80, true)
			probe.Load(uintptr(stateBase)+uintptr(p-1)*stateStride, (m+1)*8)
			merged = mergeMin(merged, ws.out[p], m, probe)
			probe.Op(perf.ScalarInt, m+1)
		}

		if ws.inSet[id] && ws.in[id] == merged {
			probe.TakeBranch(0x82, false)
			continue // entry unchanged: exit unchanged
		}
		probe.TakeBranch(0x82, true)
		ws.inSet[id] = true
		ws.in[id] = merged

		// Step the column through the node's bases.
		st := merged
		block := uintptr(stateBase) + uintptr(id-1)*stateStride
		var rowOff uintptr // (i·16) mod stateStride, kept without a division
		for _, b := range g.Seq(id) {
			st.step(eq[bio.Code(b)], m, probe)
			// Row state read-modify-write: each row's bitvectors live in
			// the per-node state block.
			probe.Load(block+rowOff, 16)
			probe.Store(block+rowOff, 16)
			if rowOff += 16; rowOff >= stateStride {
				rowOff -= stateStride
			}
			if st.score < best.Distance {
				probe.TakeBranch(0x83, true)
				best = EditResult{Distance: st.score, EndNode: id}
			} else {
				probe.TakeBranch(0x83, false)
			}
		}

		changed := !ws.hasOut[id] || st != ws.out[id]
		probe.TakeBranch(0x84, changed)
		if !changed {
			continue
		}
		ws.out[id] = st
		ws.hasOut[id] = true
		probe.Store(uintptr(stateBase)+uintptr(id-1)*stateStride, (m+1)*8)

		for _, c := range g.Out(id) {
			if !ws.inQueue[c] {
				gbvHeapPush(&ws.pq, gbvItem{c, st.score})
				ws.inQueue[c] = true
				probe.Op(perf.ScalarInt, 8)
			}
		}
	}

	// The empty-alignment answer for zero-length nodes is already m.
	if best.Distance == m {
		best.EndNode = 0
	}
	return best, nil
}

// mergeMin returns the column whose score profile is the row-wise minimum of
// a's and b's, D[j] = min(Da[j], Db[j]) for rows 0..m, recording one 0x81
// branch per row on whether b (the parent) is below a (the running merge).
// The profiles are walked top-down from D[0], which is the bottom score less
// the deltas of rows 0..m-1. Only rows below m are read, so a stepped state's
// stray high bits are ignored, and the result is clean (bits ≥ m zero) so
// that merged columns compare equal as words exactly when their profiles do.
// vp and vn of a Myers column never share a row, so each row's delta is
// vp − vn.
func mergeMin(a, b myersState, m int, probe *perf.Probe) myersState {
	mask := ones(m)
	da := a.score - bits.OnesCount64(a.vp&mask) + bits.OnesCount64(a.vn&mask)
	db := b.score - bits.OnesCount64(b.vp&mask) + bits.OnesCount64(b.vn&mask)
	probe.TakeBranch(0x81, db < da)
	prev := min(da, db)
	var out myersState
	for j := 0; j < m; j++ {
		s := uint(j) & 63 // j < m ≤ 64; the mask spares Go's over-width shift handling
		da += int(a.vp>>s&1) - int(a.vn>>s&1)
		db += int(b.vp>>s&1) - int(b.vn>>s&1)
		probe.TakeBranch(0x81, db < da)
		cur := min(da, db)
		// cur−prev is −1, 0 or +1: +1 sets the row's vp bit, −1 its vn bit.
		out.vp |= uint64(cur-prev+1) >> 1 << s
		out.vn |= uint64(prev-cur+1) >> 1 << s
		prev = cur
	}
	out.score = prev
	return out
}

type gbvItem struct {
	node graph.NodeID
	prio int
}

// The manual heap below replicates container/heap's exact sift algorithm
// (up on push; swap-root-to-end + down on pop) so pop order — and therefore
// GBV's EndNode on equal-score ties — is byte-identical to the historical
// container/heap implementation, without the interface boxing allocation
// per push.

func gbvLess(a, b gbvItem) bool { return a.prio < b.prio }

func gbvHeapPush(h *[]gbvItem, it gbvItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !gbvLess(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func gbvHeapPop(h *[]gbvItem) gbvItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	gbvHeapDown(s[:n], 0)
	it := s[n]
	*h = s[:n]
	return it
}

func gbvHeapDown(s []gbvItem, i int) {
	n := len(s)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && gbvLess(s[j2], s[j1]) {
			j = j2
		}
		if !gbvLess(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}
