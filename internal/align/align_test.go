package align

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/graph"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

// mutate applies roughly rate edits (SNP/ins/del) to seq.
func mutate(rng *rand.Rand, seq []byte, rate float64) []byte {
	var out []byte
	for _, b := range seq {
		r := rng.Float64()
		switch {
		case r < rate/3: // SNP
			out = append(out, "ACGT"[rng.Intn(4)])
		case r < 2*rate/3: // deletion
		case r < rate: // insertion
			out = append(out, b, "ACGT"[rng.Intn(4)])
		default:
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = []byte{'A'}
	}
	return out
}

func TestSmithWatermanKnown(t *testing.T) {
	sc := bio.Scoring{Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2}
	r := SmithWaterman([]byte("ACGTACGT"), []byte("ACGTACGT"), sc)
	if r.Score != 16 || r.Cigar.String() != "8=" {
		t.Fatalf("perfect match: %+v cigar=%s", r, r.Cigar)
	}
	r = SmithWaterman([]byte("AAAATTTTGGGG"), []byte("TTTT"), sc)
	if r.Score != 8 || r.RefBegin != 4 || r.RefEnd != 8 {
		t.Fatalf("substring: %+v", r)
	}
	// No similarity at all.
	r = SmithWaterman([]byte("AAAA"), []byte("TTTT"), sc)
	if r.Score != 0 {
		t.Fatalf("disjoint: %+v", r)
	}
}

func TestSmithWatermanCigarConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := bio.DefaultScoring
	for i := 0; i < 50; i++ {
		ref := randSeq(rng, 80+rng.Intn(80))
		query := mutate(rng, ref[10:60], 0.1)
		r := SmithWaterman(ref, query, sc)
		if r.Score == 0 {
			continue
		}
		if got := rescore(ref[r.RefBegin:r.RefEnd], query[r.QueryBeg:r.QueryEnd], r.Cigar, sc); got != r.Score {
			t.Fatalf("cigar rescores to %d, want %d (cigar %s)", got, r.Score, r.Cigar)
		}
	}
}

// rescore recomputes the alignment score implied by a CIGAR over the exact
// aligned substrings.
func rescore(ref, query []byte, c bio.Cigar, sc bio.Scoring) int {
	score, i, j := 0, 0, 0
	for _, e := range c {
		switch e.Op {
		case bio.CigarEq, bio.CigarX, bio.CigarMatch:
			for k := 0; k < e.Len; k++ {
				score += sc.Substitution(ref[i], query[j])
				i++
				j++
			}
		case bio.CigarIns:
			score -= sc.GapOpen + (e.Len-1)*sc.GapExtend
			j += e.Len
		case bio.CigarDel:
			score -= sc.GapOpen + (e.Len-1)*sc.GapExtend
			i += e.Len
		}
	}
	return score
}

func TestStripedSWMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := bio.DefaultScoring
	for i := 0; i < 120; i++ {
		ref := randSeq(rng, 20+rng.Intn(150))
		query := mutate(rng, ref[rng.Intn(len(ref)/2):], 0.15)
		if len(query) > 100 {
			query = query[:100]
		}
		want := SmithWaterman(ref, query, sc)
		got := StripedSW(ref, query, sc, nil)
		if got.Score != want.Score {
			t.Fatalf("case %d: striped score %d != oracle %d (ref %s query %s)",
				i, got.Score, want.Score, ref, query)
		}
	}
}

func TestStripedSWEmpty(t *testing.T) {
	if r := StripedSW(nil, []byte("ACGT"), bio.DefaultScoring, nil); r.Score != 0 {
		t.Fatal("empty ref must score 0")
	}
	if r := StripedSW([]byte("ACGT"), nil, bio.DefaultScoring, nil); r.Score != 0 {
		t.Fatal("empty query must score 0")
	}
}

func TestStripedSWProperty(t *testing.T) {
	sc := bio.Scoring{Match: 2, Mismatch: 4, GapOpen: 4, GapExtend: 1}
	f := func(seedRef, seedQ int64) bool {
		rngR := rand.New(rand.NewSource(seedRef))
		rngQ := rand.New(rand.NewSource(seedQ))
		ref := randSeq(rngR, 1+rngR.Intn(60))
		query := randSeq(rngQ, 1+rngQ.Intn(40))
		return StripedSW(ref, query, sc, nil).Score == SmithWaterman(ref, query, sc).Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// linearGraph wraps a sequence as a chain of nodes of the given sizes.
func linearGraph(seq []byte, chunk int) *graph.Graph {
	g := graph.New()
	var prev graph.NodeID
	for off := 0; off < len(seq); off += chunk {
		end := off + chunk
		if end > len(seq) {
			end = len(seq)
		}
		id := g.AddNode(seq[off:end])
		if prev != 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	return g
}

func TestGSSWLinearEqualsSW(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := bio.DefaultScoring
	for i := 0; i < 60; i++ {
		ref := randSeq(rng, 30+rng.Intn(120))
		query := mutate(rng, ref[rng.Intn(len(ref)/3):], 0.12)
		if len(query) > 90 {
			query = query[:90]
		}
		g := linearGraph(ref, 1+rng.Intn(12))
		want := SmithWaterman(ref, query, sc)
		got, err := GSSW(g, query, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("case %d: GSSW %d != SW %d (chunks, ref %s, query %s)",
				i, got.Score, want.Score, ref, query)
		}
	}
}

// allPathSeqs enumerates every source-to-sink path sequence of a small DAG.
func allPathSeqs(g *graph.Graph) [][]byte {
	var out [][]byte
	var walk func(id graph.NodeID, acc []byte)
	walk = func(id graph.NodeID, acc []byte) {
		acc = append(append([]byte{}, acc...), g.Seq(id)...)
		outs := g.Out(id)
		if len(outs) == 0 {
			out = append(out, acc)
			return
		}
		for _, c := range outs {
			walk(c, acc)
		}
	}
	for id := 1; id <= g.NumNodes(); id++ {
		if len(g.In(graph.NodeID(id))) == 0 {
			walk(graph.NodeID(id), nil)
		}
	}
	return out
}

// randomSmallDAG builds a DAG with limited path count for enumeration.
func randomSmallDAG(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	n := 4 + rng.Intn(5)
	for i := 0; i < n; i++ {
		g.AddNode(randSeq(rng, 1+rng.Intn(8)))
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for k := 0; k < 2; k++ {
		a := 1 + rng.Intn(n-1)
		b := a + 1 + rng.Intn(n-a)
		g.AddEdge(graph.NodeID(a), graph.NodeID(b))
	}
	return g
}

func TestGSSWGraphEqualsBestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sc := bio.DefaultScoring
	for i := 0; i < 60; i++ {
		g := randomSmallDAG(rng)
		// Query derived from a random path.
		paths := allPathSeqs(g)
		base := paths[rng.Intn(len(paths))]
		query := mutate(rng, base, 0.1)
		if len(query) > 64 {
			query = query[:64]
		}
		want := 0
		for _, ps := range paths {
			if s := SmithWaterman(ps, query, sc).Score; s > want {
				want = s
			}
		}
		got, err := GSSW(g, query, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want {
			t.Fatalf("case %d: GSSW %d != best path %d", i, got.Score, want)
		}
	}
}

func TestGSSWTracebackRescores(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sc := bio.DefaultScoring
	for i := 0; i < 60; i++ {
		g := randomSmallDAG(rng)
		paths := allPathSeqs(g)
		query := mutate(rng, paths[rng.Intn(len(paths))], 0.08)
		if len(query) > 64 {
			query = query[:64]
		}
		got, err := GSSW(g, query, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score == 0 {
			continue
		}
		// The path must be a real walk ending at EndNode.
		for k := 1; k < len(got.Path); k++ {
			if !g.HasEdge(got.Path[k-1], got.Path[k]) {
				t.Fatalf("case %d: traceback path %v uses non-edge", i, got.Path)
			}
		}
		if got.Path[len(got.Path)-1] != got.EndNode {
			t.Fatalf("case %d: path end %v != EndNode %v", i, got.Path, got.EndNode)
		}
		// Rescore the CIGAR along the path sequence suffix.
		var refSeq []byte
		for _, id := range got.Path {
			refSeq = append(refSeq, g.Seq(id)...)
		}
		endInPath := len(refSeq) - (len(g.Seq(got.EndNode)) - got.EndOffset)
		refAligned := refSeq[endInPath-got.Cigar.RefLen() : endInPath]
		qAligned := query[got.QueryEnd-got.Cigar.QueryLen() : got.QueryEnd]
		if s := rescore(refAligned, qAligned, got.Cigar, sc); s != got.Score {
			t.Fatalf("case %d: cigar %s rescores to %d, want %d", i, got.Cigar, s, got.Score)
		}
	}
}

func TestGSSWRejectsCyclicGraph(t *testing.T) {
	g := graph.New()
	g.AddNode([]byte("A"))
	g.AddNode([]byte("C"))
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	if _, err := GSSW(g, []byte("AC"), bio.DefaultScoring, nil); err == nil {
		t.Fatal("cyclic graph must be rejected")
	}
}

func TestMyers64MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		ref := randSeq(rng, 10+rng.Intn(200))
		query := mutate(rng, ref[rng.Intn(len(ref)/2):], 0.15)
		if len(query) > 64 {
			query = query[:64]
		}
		want := EditDistanceFull(ref, query)
		got, err := Myers64(ref, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != want.Distance {
			t.Fatalf("case %d: Myers %d != oracle %d (ref %s query %s)",
				i, got.Distance, want.Distance, ref, query)
		}
	}
}

func TestMyers64Bounds(t *testing.T) {
	if _, err := Myers64([]byte("ACGT"), nil, nil); err == nil {
		t.Fatal("empty query must be rejected")
	}
	if _, err := Myers64([]byte("ACGT"), bytes.Repeat([]byte("A"), 65), nil); err == nil {
		t.Fatal("query > 64 must be rejected")
	}
	got, err := Myers64([]byte("ACGT"), bytes.Repeat([]byte("A"), 64), nil)
	if err != nil || got.Distance < 0 {
		t.Fatalf("64-base query: %v %v", got, err)
	}
}

// randomGraph may contain cycles (for GBV).
func randomGraph(rng *rand.Rand, allowCycles bool) *graph.Graph {
	g := graph.New()
	n := 3 + rng.Intn(6)
	for i := 0; i < n; i++ {
		g.AddNode(randSeq(rng, 1+rng.Intn(6)))
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for k := 0; k < 3; k++ {
		a := 1 + rng.Intn(n)
		b := 1 + rng.Intn(n)
		if !allowCycles && a >= b {
			continue
		}
		if a != b {
			g.AddEdge(graph.NodeID(a), graph.NodeID(b))
		}
	}
	return g
}

func TestGBVMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 80; i++ {
		g := randomGraph(rng, true)
		query := randSeq(rng, 1+rng.Intn(24))
		want := GraphEditDistance(g, query)
		got, err := GBV(g, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != want.Distance {
			t.Fatalf("case %d: GBV %d != oracle %d", i, got.Distance, want.Distance)
		}
	}
}

func TestGBVLinearEqualsMyers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 40; i++ {
		ref := randSeq(rng, 20+rng.Intn(100))
		query := mutate(rng, ref[rng.Intn(len(ref)/2):], 0.1)
		if len(query) > 50 {
			query = query[:50]
		}
		g := linearGraph(ref, 1+rng.Intn(7))
		want, err := Myers64(ref, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GBV(g, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != want.Distance {
			t.Fatalf("case %d: GBV %d != Myers %d", i, got.Distance, want.Distance)
		}
	}
}

func TestGBVQueryTooLong(t *testing.T) {
	g := linearGraph([]byte("ACGT"), 2)
	if _, err := GBV(g, bytes.Repeat([]byte("A"), 65), nil); err == nil {
		t.Fatal("query > 64 must be rejected")
	}
}

func TestWFAEditMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 80; i++ {
		a := randSeq(rng, 1+rng.Intn(120))
		b := mutate(rng, a, 0.1)
		want := GlobalEditDistance(a, b)
		if got := WFAEdit(a, b, nil); got != want {
			t.Fatalf("case %d: WFA %d != oracle %d (a=%s b=%s)", i, got, want, a, b)
		}
	}
}

func TestWFAEditEdges(t *testing.T) {
	if WFAEdit(nil, []byte("ACG"), nil) != 3 {
		t.Fatal("empty a")
	}
	if WFAEdit([]byte("ACG"), nil, nil) != 3 {
		t.Fatal("empty b")
	}
	if WFAEdit([]byte("ACG"), []byte("ACG"), nil) != 0 {
		t.Fatal("identical")
	}
}

func TestWFAEditProperty(t *testing.T) {
	f := func(s1, s2 int64) bool {
		r1, r2 := rand.New(rand.NewSource(s1)), rand.New(rand.NewSource(s2))
		a, b := randSeq(r1, 1+r1.Intn(50)), randSeq(r2, 1+r2.Intn(50))
		return WFAEdit(a, b, nil) == GlobalEditDistance(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGWFAMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 80; i++ {
		g := randomGraph(rng, true)
		query := randSeq(rng, 1+rng.Intn(24))
		want := GraphEditDistanceFrom(g, 1, query)
		got, err := GWFA(g, 1, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != want.Distance {
			t.Fatalf("case %d: GWFA %d != oracle %d", i, got.Distance, want.Distance)
		}
	}
}

func TestGWFALinearEqualsEditDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		ref := randSeq(rng, 20+rng.Intn(120))
		// Query = prefix of ref with mutations, so the best alignment
		// starts at the ref start (GWFA's fixed start).
		query := mutate(rng, ref[:5+rng.Intn(len(ref)-10)], 0.08)
		g := linearGraph(ref, 1+rng.Intn(9))
		want := GraphEditDistanceFrom(g, 1, query)
		got, err := GWFA(g, 1, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != want.Distance {
			t.Fatalf("case %d: GWFA %d != oracle %d", i, got.Distance, want.Distance)
		}
	}
}

func TestGWFAInvalidStart(t *testing.T) {
	g := linearGraph([]byte("ACGT"), 2)
	if _, err := GWFA(g, 99, []byte("AC"), nil); err == nil {
		t.Fatal("invalid start must be rejected")
	}
}

func TestPOAIdenticalSequences(t *testing.T) {
	p := NewPOA()
	seq := []byte("ACGTACGTACGT")
	for i := 0; i < 4; i++ {
		if err := p.AddSequence(seq, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Consensus(); !bytes.Equal(got, seq) {
		t.Fatalf("consensus %s != input %s", got, seq)
	}
	if p.NumNodes() != len(seq) {
		t.Fatalf("identical sequences must not grow the graph: %d nodes", p.NumNodes())
	}
}

func TestPOAConsensusMajority(t *testing.T) {
	p := NewPOA()
	// Three sequences agree, one deviates at a SNP.
	if err := p.AddSequence([]byte("ACGTACGTAC"), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSequence([]byte("ACGTACGTAC"), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSequence([]byte("ACGTTCGTAC"), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSequence([]byte("ACGTACGTAC"), nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Consensus(); !bytes.Equal(got, []byte("ACGTACGTAC")) {
		t.Fatalf("consensus %s, want majority ACGTACGTAC", got)
	}
}

func TestPOAStaysAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		p := NewPOA()
		base := randSeq(rng, 30+rng.Intn(40))
		for s := 0; s < 6; s++ {
			seq := mutate(rng, base, 0.15)
			if err := p.AddSequence(seq, nil); err != nil {
				t.Fatal(err)
			}
			order, _ := p.topo()
			if got := len(order); got != p.NumNodes() {
				t.Fatalf("trial %d seq %d: POA graph has a cycle (%d of %d sorted)",
					trial, s, got, p.NumNodes())
			}
		}
		if len(p.Consensus()) == 0 {
			t.Fatal("empty consensus")
		}
	}
}

func TestPOAEmptySequence(t *testing.T) {
	p := NewPOA()
	if err := p.AddSequence(nil, nil); err == nil {
		t.Fatal("empty sequence must be rejected")
	}
}

func TestPOABandedClosesToUnbanded(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := randSeq(rng, 60)
	full := NewPOA()
	banded := NewPOA()
	banded.Band = 20
	for s := 0; s < 5; s++ {
		seq := mutate(rng, base, 0.05)
		if err := full.AddSequence(seq, nil); err != nil {
			t.Fatal(err)
		}
		if err := banded.AddSequence(seq, nil); err != nil {
			t.Fatal(err)
		}
	}
	fc, bc := full.Consensus(), banded.Consensus()
	if d := GlobalEditDistance(fc, bc); d > 5 {
		t.Fatalf("banded consensus diverges: %d edits (full %s banded %s)", d, fc, bc)
	}
}
