package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pangenomicsbench/internal/bio"
)

// The oracle below is the full-matrix POA kernel exactly as it stood before
// the band-resident layout replaced it: an nodes × (m+1) score/traceback
// matrix, negInf-filled rows, Scoring.Substitution per cell, and its own
// topological sort, merge and consensus. It lives only in tests; the
// production kernel must reproduce its op lists — and therefore its graphs
// and consensus — byte for byte.

func (p *POA) oracleTopoOrder() []int {
	n := len(p.nodes)
	indeg := make([]int, n)
	for i := range p.nodes {
		for _, t := range p.nodes[i].out {
			indeg[t]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, t := range p.nodes[u].out {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	return order
}

func oracleDPRows(n, w int) ([][]int, [][]int32, [][]int8) {
	score, fromNode, fromJ := make([][]int, n), make([][]int32, n), make([][]int8, n)
	for r := 0; r < n; r++ {
		score[r] = make([]int, w)
		fromNode[r] = make([]int32, w)
		fromJ[r] = make([]int8, w)
	}
	return score, fromNode, fromJ
}

func (p *POA) oracleAlignToGraph(seq []byte) []poaOp {
	const negInf = -(1 << 29)
	order := p.oracleTopoOrder()
	rank := make([]int, len(p.nodes))
	for r, id := range order {
		rank[id] = r
	}
	m := len(seq)
	gap := p.Scoring.GapOpen

	score, fromNode, fromJ := oracleDPRows(len(order), m+1)

	lo, hi := 0, m
	for r, id := range order {
		nd := &p.nodes[id]

		if p.Band > 0 {
			center := r * m / max2(len(order), 1)
			lo, hi = center-p.Band, center+p.Band
			if lo < 0 {
				lo = 0
			}
			if hi > m {
				hi = m
			}
		}

		for j := 0; j <= m; j++ {
			score[r][j] = negInf
		}
		for j := lo; j <= hi; j++ {
			best, bn, bj := negInf, int32(-2), int8(0)
			preds := nd.in
			if len(preds) == 0 {
				if j > 0 {
					d := -(j-1)*gap + p.Scoring.Substitution(nd.base, seq[j-1])
					if d > best {
						best, bn, bj = d, -1, 0
					}
				}
				if d := -(j + 1) * gap; d > best {
					best, bn, bj = d, -1, 1
				}
			}
			for _, pre := range preds {
				pr := rank[pre]
				if j > 0 {
					d := score[pr][j-1] + p.Scoring.Substitution(nd.base, seq[j-1])
					if d > best {
						best, bn, bj = d, int32(pr), 0
					}
				}
				if v := score[pr][j] - gap; v > best {
					best, bn, bj = v, int32(pr), 1
				}
			}
			if j > 0 {
				if v := score[r][j-1] - gap; v > best {
					best, bn, bj = v, int32(r), 2
				}
			}
			score[r][j] = best
			fromNode[r][j] = bn
			fromJ[r][j] = bj
		}
	}

	bestR, bestScore := -1, negInf
	for r, id := range order {
		if len(p.nodes[id].out) == 0 && score[r][m] > bestScore {
			bestScore, bestR = score[r][m], r
		}
	}
	if bestR < 0 {
		for r := range order {
			if score[r][m] > bestScore {
				bestScore, bestR = score[r][m], r
			}
		}
	}

	var rev []poaOp
	r, j := bestR, m
	for r >= 0 {
		bn, bj := fromNode[r][j], fromJ[r][j]
		switch bj {
		case 0:
			rev = append(rev, poaOp{order[r], j - 1})
			if bn == -1 {
				for q := j - 2; q >= 0; q-- {
					rev = append(rev, poaOp{-1, q})
				}
				r, j = -1, 0
				continue
			}
			r, j = int(bn), j-1
		case 1:
			rev = append(rev, poaOp{order[r], -1})
			if bn == -1 {
				for q := j - 1; q >= 0; q-- {
					rev = append(rev, poaOp{-1, q})
				}
				r = -1
				continue
			}
			r = int(bn)
		case 2:
			rev = append(rev, poaOp{-1, j - 1})
			j--
		}
	}
	ops := make([]poaOp, len(rev))
	for i := range rev {
		ops[i] = rev[len(rev)-1-i]
	}
	return ops
}

func (p *POA) oracleMerge(seq []byte, ops []poaOp) {
	rank := make([]int, len(p.nodes))
	for r, id := range p.oracleTopoOrder() {
		rank[id] = r
	}
	lastExistingRank := -1
	prev := -1
	link := func(id int) {
		if prev >= 0 && id >= 0 {
			p.addEdge(prev, id)
		}
		if id >= 0 {
			prev = id
			if id < len(rank) {
				lastExistingRank = rank[id]
			}
		}
	}
	for _, op := range ops {
		switch {
		case op.node >= 0 && op.qpos >= 0:
			b := seq[op.qpos]
			nd := &p.nodes[op.node]
			if bio.Code(nd.base) == bio.Code(b) {
				nd.weight++
				link(op.node)
				break
			}
			target := -1
			for _, alt := range nd.alignedTo {
				if bio.Code(p.nodes[alt].base) == bio.Code(b) &&
					(alt >= len(rank) || rank[alt] > lastExistingRank) {
					target = alt
					break
				}
			}
			if target < 0 {
				target = p.newNode(b)
				group := append([]int{op.node}, nd.alignedTo...)
				for _, gmem := range group {
					p.nodes[gmem].alignedTo = append(p.nodes[gmem].alignedTo, target)
					p.nodes[target].alignedTo = append(p.nodes[target].alignedTo, gmem)
				}
			} else {
				p.nodes[target].weight++
			}
			link(target)
		case op.node < 0 && op.qpos >= 0:
			id := p.newNode(seq[op.qpos])
			link(id)
		default:
		}
	}
}

func (p *POA) oracleConsensus() []byte {
	if len(p.nodes) == 0 {
		return nil
	}
	order := p.oracleTopoOrder()
	best := make([]int, len(p.nodes))
	next := make([]int, len(p.nodes))
	for i := range next {
		next[i] = -1
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		nd := &p.nodes[id]
		best[id] = nd.weight
		bestChild, bestVal := -1, 0
		for ei, t := range nd.out {
			v := best[t] + nd.outWeight[ei]
			if v > bestVal {
				bestVal, bestChild = v, t
			}
		}
		best[id] += bestVal
		next[id] = bestChild
	}
	start, startVal := -1, -1
	for _, id := range order {
		if len(p.nodes[id].in) == 0 && best[id] > startVal {
			startVal, start = best[id], id
		}
	}
	var out []byte
	for id := start; id >= 0; id = next[id] {
		out = append(out, p.nodes[id].base)
	}
	return out
}

// oracleAddSequence is AddSequence over the oracle kernel.
func (p *POA) oracleAddSequence(seq []byte) []poaOp {
	if len(p.nodes) == 0 {
		prev := -1
		for _, b := range seq {
			id := p.newNode(b)
			if prev >= 0 {
				p.addEdge(prev, id)
			}
			prev = id
		}
		return nil
	}
	ops := p.oracleAlignToGraph(seq)
	p.oracleMerge(seq, ops)
	return ops
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// samePOAGraph compares node and edge sets field by field (a reused POA
// holds empty non-nil slices where a fresh one holds nil, so DeepEqual
// would be too strict).
func samePOAGraph(a, b *POA) error {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Errorf("%d nodes vs %d", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		x, y := &a.nodes[i], &b.nodes[i]
		if x.base != y.base || x.weight != y.weight || !intsEqual(x.out, y.out) ||
			!intsEqual(x.in, y.in) || !intsEqual(x.outWeight, y.outWeight) || !intsEqual(x.alignedTo, y.alignedTo) {
			return fmt.Errorf("node %d differs: %+v vs %+v", i, *x, *y)
		}
	}
	return nil
}

// checkPOAAgainstOracle adds seqs one by one to got (the production
// kernel, left as the caller set it up — possibly a Reset graph with dirty
// scratch) and to a fresh oracle graph, requiring identical op lists, node
// and edge sets and consensus after every AddSequence.
func checkPOAAgainstOracle(got *POA, seqs [][]byte) error {
	want := NewPOA()
	want.Band, want.Scoring = got.Band, got.Scoring
	for i, s := range seqs {
		// The op list of this step, from the production kernel on the
		// pre-merge graph (AddSequence recomputes the same list).
		var ops []poaOp
		if len(got.nodes) > 0 {
			order, rank := got.topo()
			ops = append(ops, got.alignToGraph(s, order, rank, nil)...)
		}
		wantOps := want.oracleAddSequence(s)
		if len(ops) != len(wantOps) {
			return fmt.Errorf("seq %d: %d ops, oracle %d", i, len(ops), len(wantOps))
		}
		for k := range ops {
			if ops[k] != wantOps[k] {
				return fmt.Errorf("seq %d: op %d = %+v, oracle %+v", i, k, ops[k], wantOps[k])
			}
		}
		if err := got.AddSequence(s, nil); err != nil {
			return fmt.Errorf("seq %d: %v", i, err)
		}
		if err := samePOAGraph(got, want); err != nil {
			return fmt.Errorf("after seq %d: %v", i, err)
		}
		if c, oc := got.Consensus(), want.oracleConsensus(); !bytes.Equal(c, oc) {
			return fmt.Errorf("after seq %d: consensus %q, oracle %q", i, c, oc)
		}
		if len(want.oracleTopoOrder()) != len(want.nodes) {
			// A traceback through out-of-band cells can revisit a node and
			// merge a self-loop (both kernels, identically). Aligning to a
			// cyclic graph is undefined — it may not terminate — so the
			// comparison ends here.
			return nil
		}
	}
	return nil
}

// poaMutate returns src with substitutions, short indels and (optionally) one
// long insertion, all drawn from rng.
func poaMutate(rng *rand.Rand, src []byte, subs, indels, longIns int) []byte {
	const bases = "ACGTN"
	out := append([]byte(nil), src...)
	for i := 0; i < subs && len(out) > 0; i++ {
		out[rng.Intn(len(out))] = bases[rng.Intn(5)]
	}
	for i := 0; i < indels && len(out) > 2; i++ {
		at := rng.Intn(len(out) - 1)
		if rng.Intn(2) == 0 {
			out = append(out[:at], out[at+1:]...)
		} else {
			out = append(out[:at+1], out[at:]...)
			out[at] = bases[rng.Intn(4)]
		}
	}
	if longIns > 0 {
		ins := randSeq(rng, longIns)
		at := rng.Intn(len(out) + 1)
		out = append(out[:at:at], append(ins, out[at:]...)...)
	}
	return out
}

// poaOracleCorpus is the fixed differential corpus, shared with the fuzz
// target as seeds: polish-window-like sets, length-skewed sets and sets
// with a 200 bp insertion, whose query outruns every sink's band at Band 4
// (the "all sinks banded out" fallback), and one set built so that the
// traceback walks out-of-band cells.
func poaOracleCorpus() [][][]byte {
	var corpus [][][]byte
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		backbone := randSeq(rng, 40+rng.Intn(160))
		set := [][]byte{backbone}
		for len(set) < n {
			set = append(set, poaMutate(rng, backbone, rng.Intn(8), rng.Intn(6), 0))
		}
		corpus = append(corpus, set)
	}
	rng := rand.New(rand.NewSource(99))
	long := randSeq(rng, 300)
	short := long[100:130]
	corpus = append(corpus,
		// Query ten times the graph, and the reverse.
		[][]byte{short, long, poaMutate(rng, long, 4, 2, 0)},
		[][]byte{long, short, poaMutate(rng, short, 1, 1, 0), long},
		// One 200 bp insertion against a 120 bp backbone.
		[][]byte{long[:120], poaMutate(rng, long[:120], 2, 1, 200), poaMutate(rng, long[:120], 3, 0, 0)},
		[][]byte{long[:60], poaMutate(rng, long[:60], 0, 0, 200), long[:60], poaMutate(rng, long[:60], 2, 2, 200)},
		// Three disjoint chains interleave in topological order, so along
		// each chain the band centre of a 110 bp query moves 11 columns per
		// node — more than the 9 a Band-4 row spans. Every row past the
		// sources then holds only poaNegInf+Match cells reached from
		// out-of-band predecessors, the last rank's band still covers
		// j = m, and the traceback from there reads out-of-band cells all
		// the way back to rank 0.
		[][]byte{bytes.Repeat([]byte("A"), 10), bytes.Repeat([]byte("C"), 10), bytes.Repeat([]byte("G"), 10),
			append(randSeq(rng, 109), 'G')},
		// Degenerate shapes.
		[][]byte{[]byte("A"), []byte("ACGTACGTAC"), []byte("C")},
		[][]byte{[]byte("NNNN"), []byte("NNNN"), []byte("ACNN")},
	)
	return corpus
}

var poaOracleBands = []int{0, 4, 48}

func TestPOABandMatchesOracle(t *testing.T) {
	for ci, set := range poaOracleCorpus() {
		for _, band := range poaOracleBands {
			p := NewPOA()
			p.Band = band
			if err := checkPOAAgainstOracle(p, set); err != nil {
				t.Fatalf("set %d band %d: %v", ci, band, err)
			}
		}
	}
}

// TestPOAOracleCorpusWalksOutOfBand keeps the corpus honest: at least one
// case must trace back through a cell outside its rank's band, and one must
// find every sink banded out at j = m, or the differential test is not
// exercising the out-of-band read rule it exists for.
func TestPOAOracleCorpusWalksOutOfBand(t *testing.T) {
	outOfBand, sinksOut := false, false
	for _, set := range poaOracleCorpus() {
		p := NewPOA()
		p.Band = 4
		for _, s := range set {
			if len(p.nodes) > 0 {
				order, rank := p.topo()
				ops := p.alignToGraph(s, order, rank, nil)
				sc := &p.scratch
				m := len(s)
				allOut := true
				for r, id := range order {
					if len(p.nodes[id].out) == 0 && int(sc.lo[r]) <= m && m <= int(sc.hi[r]) {
						allOut = false
					}
				}
				sinksOut = sinksOut || allOut
				// An op pairing node and query position lies on cell
				// (rank, qpos+1).
				for _, op := range ops {
					if op.node >= 0 && op.qpos >= 0 {
						r, j := rank[op.node], op.qpos+1
						if j < int(sc.lo[r]) || j > int(sc.hi[r]) {
							outOfBand = true
						}
					}
				}
			}
			if err := p.AddSequence(s, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !outOfBand {
		t.Error("no corpus case traces back through an out-of-band cell")
	}
	if !sinksOut {
		t.Error("no corpus case bands out every sink")
	}
}

// TestPOAResetMatchesFresh reuses one POA across every corpus set (the
// polish-window pattern): after Reset the graph must behave exactly like a
// fresh one whatever the scratch and node slots still hold.
func TestPOAResetMatchesFresh(t *testing.T) {
	for _, band := range poaOracleBands {
		p := NewPOA()
		p.Band = band
		for ci, set := range poaOracleCorpus() {
			p.Reset()
			if p.NumNodes() != 0 || p.Consensus() != nil {
				t.Fatalf("Reset left %d nodes", p.NumNodes())
			}
			if err := checkPOAAgainstOracle(p, set); err != nil {
				t.Fatalf("band %d set %d on a reused POA: %v", band, ci, err)
			}
		}
	}
}

// fuzzPOASet cuts data into 2–8 sequences over ACGTN: the first byte
// picks the count and the band, the rest is split evenly and mapped
// onto the alphabet.
func fuzzPOASet(data []byte) (band int, set [][]byte) {
	if len(data) < 3 {
		return 0, nil
	}
	n := 2 + int(data[0]&7)%7
	band = poaOracleBands[int(data[0]>>3)%len(poaOracleBands)]
	body := data[1:]
	if len(body) > 1200 {
		body = body[:1200]
	}
	// 0xff separates sequences, so inputs can be length-skewed.
	for _, part := range bytes.SplitN(body, []byte{0xff}, n) {
		if len(part) == 0 {
			continue
		}
		s := make([]byte, len(part))
		for i, c := range part {
			s[i] = "ACGTN"[int(c)%5]
		}
		set = append(set, s)
	}
	return band, set
}

func FuzzPOABandMatchesOracle(f *testing.F) {
	for ci, set := range poaOracleCorpus() {
		// Inverse of fuzzPOASet: bases map to their alphabet index.
		data := []byte{byte(len(set)-2) | byte(ci%len(poaOracleBands))<<3}
		for i, s := range set {
			if i > 0 {
				data = append(data, 0xff)
			}
			for _, c := range s {
				data = append(data, byte(bytes.IndexByte([]byte("ACGTN"), c)))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		band, set := fuzzPOASet(data)
		if len(set) < 2 {
			return
		}
		p := NewPOA()
		p.Band = band
		if err := checkPOAAgainstOracle(p, set); err != nil {
			t.Fatalf("band %d: %v", band, err)
		}
	})
}
