package build

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/gfa"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
)

// indexesEqual verifies the two indexes store exactly the same hashes with
// the same ordered location lists — the byte-identical contract between
// incremental AddPath extension and a from-scratch rebuild.
func indexesEqual(t *testing.T, got, want *minimizer.GraphIndex) {
	t.Helper()
	gh, wh := got.Hashes(), want.Hashes()
	if !reflect.DeepEqual(gh, wh) {
		t.Fatalf("hash sets differ: %d incremental vs %d rebuilt", len(gh), len(wh))
	}
	for _, h := range wh {
		if !reflect.DeepEqual(got.Lookup(h), want.Lookup(h)) {
			t.Fatalf("hash %#x: locations differ:\nincremental %v\nrebuilt     %v",
				h, got.Lookup(h), want.Lookup(h))
		}
	}
}

// TestMCIncrementalIndexDifferential proves the tentpole contract: across a
// ≥6-assembly MC run, the incrementally extended index is identical (same
// hashes, same ordered locations) to a minimizer.NewGraphIndex rebuilt from
// scratch after every assembly.
func TestMCIncrementalIndexDifferential(t *testing.T) {
	names, seqs := testAssemblies(t, 9000, 6)
	if len(seqs) < 6 {
		t.Fatalf("need ≥6 assemblies, got %d", len(seqs))
	}
	cfg := DefaultMCConfig()
	cfg.LayoutIterations = 0
	checks := 0
	cfg.indexCheck = func(g *graph.Graph, idx *minimizer.GraphIndex) {
		rebuilt, err := minimizer.NewGraphIndex(g, cfg.K, cfg.W)
		if err != nil {
			t.Fatal(err)
		}
		indexesEqual(t, idx, rebuilt)
		checks++
	}
	if _, err := MinigraphCactus(context.Background(), names, seqs, cfg, nil); err != nil {
		t.Fatal(err)
	}
	// Backbone plus one check per mapped assembly.
	if want := len(seqs); checks != want {
		t.Fatalf("differential ran %d times, want %d", checks, want)
	}
}

// gfaBytes serializes g canonically for byte-identity comparisons.
func gfaBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gfa.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMCParallelChunkDeterminism guards the parallel mapping contract: MC
// output is byte-identical across Workers 1/4/8 and arbitrary scheduling
// (run under -race in CI to exercise the pool).
func TestMCParallelChunkDeterminism(t *testing.T) {
	names, seqs := testAssemblies(t, 9000, 4)
	cfg := DefaultMCConfig()
	cfg.LayoutIterations = 0
	// Small chunks so each assembly maps as several concurrent tasks.
	cfg.MapChunk = 1500
	cfg.Workers = 1
	base, err := MinigraphCactus(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := gfaBytes(t, base.Graph)
	for _, workers := range []int{4, 8, 0} {
		cfg.Workers = workers
		got, err := MinigraphCactus(context.Background(), names, seqs, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != base.Stats {
			t.Fatalf("workers=%d changed stats:\n%+v\n%+v", workers, got.Stats, base.Stats)
		}
		if !bytes.Equal(gfaBytes(t, got.Graph), want) {
			t.Fatalf("workers=%d changed the constructed graph", workers)
		}
	}
	// The growth profile must cover every mapped assembly with per-chunk
	// task costs (the Fig. 5 MC-growth inputs).
	if len(base.Growth) != len(seqs)-1 {
		t.Fatalf("growth has %d steps, want %d", len(base.Growth), len(seqs)-1)
	}
	for i, st := range base.Growth {
		if len(st.ChunkTimes) == 0 || st.Induction <= 0 {
			t.Fatalf("growth step %d not measured: %+v", i, st)
		}
	}
}

// TestMCEmptyWalkFallback pins the silent-path-loss regression: an assembly
// that shares no minimizers with the backbone and is too short to induce a
// novel segment used to vanish from the graph's haplotype set entirely. It
// must now be induced whole via its backbone segmentation.
func TestMCEmptyWalkFallback(t *testing.T) {
	names, seqs := testAssemblies(t, 6000, 3)
	// Shorter than K (and MinNovel): yields no minimizers, no anchors, and
	// no whole-chunk novel segment — an empty walk plan on the old code.
	tiny := []byte("ACGTACGTAC")
	names = append(names, "tinyasm")
	seqs = append(seqs, tiny)
	cfg := DefaultMCConfig()
	cfg.LayoutIterations = 0
	res, err := MinigraphCactus(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := res.Graph.Paths()
	if len(paths) != len(seqs) {
		t.Fatalf("graph has %d paths, want %d (assembly lost)", len(paths), len(seqs))
	}
	found := false
	for _, p := range paths {
		if p.Name == "tinyasm" {
			found = true
			if got := string(res.Graph.PathSeq(p)); got != string(tiny) {
				t.Fatalf("fallback path spells %q, want %q", got, tiny)
			}
		}
	}
	if !found {
		t.Fatal("tinyasm path missing from the graph")
	}
	if res.Stats.FallbackPaths != 1 {
		t.Fatalf("FallbackPaths = %d, want 1", res.Stats.FallbackPaths)
	}
}

// randSeqMC returns a deterministic random ACGT sequence.
func randSeqMC(rng *rand.Rand, n int) []byte {
	const bases = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

// flipBase substitutes a base deterministically (A↔C, G↔T).
func flipBase(b byte) byte {
	switch b {
	case 'A':
		return 'C'
	case 'C':
		return 'A'
	case 'G':
		return 'T'
	default:
		return 'G'
	}
}

// backboneGraph is the graph MinigraphCactus holds after its first
// assembly: backbone segmented into one path, and the minimizer index over
// it. walk[i] is the node of backbone[i*SegmentLen:].
func backboneGraph(t *testing.T, backbone []byte, cfg MCConfig) (*graph.Graph, *minimizer.GraphIndex, []graph.NodeID) {
	t.Helper()
	g := graph.New()
	walk := segmentWalk(g, backbone, cfg.SegmentLen)
	if err := g.AddPath("backbone", walk); err != nil {
		t.Fatal(err)
	}
	idx, err := minimizer.NewGraphIndex(g, cfg.K, cfg.W)
	if err != nil {
		t.Fatal(err)
	}
	return g, idx, walk
}

// bridgedNovel returns the plan's novel items that a GWFA bridge declared
// (dist ≥ 0), as opposed to unanchored chunk heads and tails (dist −1).
func bridgedNovel(plan []planItem) []planItem {
	var out []planItem
	for _, item := range plan {
		if item.node == 0 && item.dist >= 0 {
			out = append(out, item)
		}
	}
	return out
}

// TestMCBridgedGapNovelty is the truth test of the bridging decision, which
// the structural tests cannot see (a bridge measured against the wrong part
// of the graph still builds a valid, deterministic graph — just a bloated
// one). A haplotype that differs from the backbone by SNPs alone, at a
// third of the Divergence threshold, must have every gap bridged as a
// match; planting one 300 bp insertion must turn exactly the gap that
// spans it novel.
func TestMCBridgedGapNovelty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	backbone := randSeqMC(rng, 8000)
	cfg := DefaultMCConfig()
	g, idx, _ := backboneGraph(t, backbone, cfg)

	snps := append([]byte(nil), backbone...)
	for pos := 20; pos < len(snps); pos += 47 { // ~2% against Divergence 6%
		snps[pos] = flipBase(snps[pos])
	}
	plan, _ := mapChunk(g, idx, snps, 0, cfg, nil)
	matched := 0
	for _, item := range plan {
		if item.node != 0 {
			matched++
		}
	}
	// One bridge per MinSpan stride; SNPs may stretch a few strides.
	if want := len(snps) / cfg.MinSpan / 2; matched < want {
		t.Fatalf("only %d anchors bridged across %d bp, want ≥ %d", matched, len(snps), want)
	}
	if novel := bridgedNovel(plan); len(novel) != 0 {
		t.Fatalf("SNP-only haplotype: %d bridged gaps declared novel, first %+v", len(novel), novel[0])
	}

	const insAt, insLen = 4000, 300
	withIns := append(append(append([]byte(nil), snps[:insAt]...), randSeqMC(rng, insLen)...), snps[insAt:]...)
	plan, _ = mapChunk(g, idx, withIns, 0, cfg, nil)
	novel := bridgedNovel(plan)
	if len(novel) != 1 {
		t.Fatalf("one planted insertion made %d bridged gaps novel: %+v", len(novel), novel)
	}
	if it := novel[0]; it.qLo > insAt || it.qHi < insAt+insLen {
		t.Fatalf("novel gap [%d,%d) does not span the insertion [%d,%d)", it.qLo, it.qHi, insAt, insAt+insLen)
	}
}

// TestMCBridgeFromAnchorNearNodeEnd pins the straddling-anchor case: an
// anchor starting 2 bases before the end of its 512 bp node (so its k-mer
// and the whole gap lie in the successor) is bridged with no more than the
// edits actually planted in the gap.
func TestMCBridgeFromAnchorNearNodeEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	backbone := randSeqMC(rng, 4000)
	cfg := DefaultMCConfig()
	g, _, walk := backboneGraph(t, backbone, cfg)

	const node, off, gapLen, edits = 2, 510, 180, 3
	qPos := node*cfg.SegmentLen + off
	query := append([]byte(nil), backbone[qPos:qPos+cfg.K+gapLen]...)
	for i := 0; i < edits; i++ {
		pos := cfg.K + 30 + 50*i
		query[pos] = flipBase(query[pos])
	}
	var ws align.GWFAWorkspace
	budget := int(cfg.Divergence * gapLen)
	if d := gapDist(&ws, g, walk[node], off, query, budget, nil); d > edits {
		t.Fatalf("gap with %d substitutions bridged from (node %d, offset %d) at distance %d", edits, walk[node], off, d)
	}
}

// TestMCGapDivergenceScaledToSpan pins the GWFA-cap mismatch: a >2000 bp
// inter-anchor gap that is ~99% identical to the graph overall, with its
// edits concentrated inside the first 2000 bp, used to be declared novel in
// its entirety because the divergence test judged the whole gap by the
// truncated prefix's distance. The piecewise measurement must keep it
// matched.
func TestMCGapDivergenceScaledToSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	backbone := randSeqMC(rng, 12_000)
	cfg := DefaultMCConfig()
	cfg.LayoutIterations = 0
	// Large MinSpan keeps bridged anchors ≥5000 bp apart, so the bridged
	// gap exceeds the 2000 bp GWFA cap even though anchors are dense.
	cfg.MinSpan = 5000

	g, idx, _ := backboneGraph(t, backbone, cfg)

	// Assembly chunk: the backbone with ~160 substitutions concentrated in
	// [600, 1900) — ~8% divergence over the capped 2000 bp prefix of the
	// first bridged gap, but only ~3% over the ≥5000 bp gap itself.
	asm := append([]byte(nil), backbone...)
	edits := 0
	for pos := 600; pos < 1900; pos += 8 {
		asm[pos] = flipBase(asm[pos])
		edits++
	}
	if edits < 150 {
		t.Fatalf("only %d edits planted", edits)
	}

	plan, _ := mapChunk(g, idx, asm, 0, cfg, nil)
	if len(plan) == 0 {
		t.Fatal("chunk produced no plan")
	}
	for _, item := range plan {
		if item.node != 0 {
			continue
		}
		if item.qLo < 1900 && item.qHi > 600 {
			t.Fatalf("novel segment [%d,%d) overlaps the ~1%%-divergent gap: the prefix-capped divergence test misdeclared it", item.qLo, item.qHi)
		}
	}
}

// TestNextMatchedDifferential checks the precomputed next-flank array
// against the naive forward rescan it replaced, on randomized plans with
// long novel runs.
func TestNextMatchedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		plan := make([]planItem, rng.Intn(200))
		for i := range plan {
			// Long novel runs: matched nodes are sparse.
			if rng.Intn(10) == 0 {
				plan[i].node = graph.NodeID(1 + rng.Intn(50))
			}
		}
		next := nextMatched(plan)
		if len(next) != len(plan)+1 {
			t.Fatalf("trial %d: next has %d entries, want %d", trial, len(next), len(plan)+1)
		}
		for pi := range plan {
			want := graph.NodeID(0)
			for _, later := range plan[pi+1:] {
				if later.node != 0 {
					want = later.node
					break
				}
			}
			if next[pi+1] != want {
				t.Fatalf("trial %d: next[%d+1] = %d, naive scan = %d", trial, pi, next[pi+1], want)
			}
		}
	}
}

// BenchmarkNextMatchedLongNovelRun guards the O(n) flank precompute on the
// worst case of the old quadratic rescan: one long run of novel items.
func BenchmarkNextMatchedLongNovelRun(b *testing.B) {
	plan := make([]planItem, 100_000)
	plan[len(plan)-1].node = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := nextMatched(plan); out[0] != 1 {
			b.Fatal("wrong flank")
		}
	}
}

// TestMCContextCancelParallel: a canceled context aborts a parallel-chunk
// run promptly with ctx.Err().
func TestMCContextCancelParallel(t *testing.T) {
	names, seqs := testAssemblies(t, 8000, 4)
	cfg := DefaultMCConfig()
	cfg.LayoutIterations = 0
	cfg.MapChunk = 1000
	cfg.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinigraphCactus(ctx, names, seqs, cfg, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// An expired deadline must surface as the deadline error, not Canceled.
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel2()
	if _, err := MinigraphCactus(ctx2, names, seqs, cfg, nil); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestGapDistMeasuresWholeGap: gapDist resumes across cap-sized pieces, so
// an identical long gap measures ~0 while the old prefix-only measurement
// would stop at the cap.
func TestGapDistMeasuresWholeGap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seq := randSeqMC(rng, 9000)
	g := graph.New()
	walk := segmentWalk(g, seq, 512)
	if err := g.AddPath("p", walk); err != nil {
		t.Fatal(err)
	}
	// The whole sequence as a gap from its first node: near-zero distance
	// even though it spans >4 cap pieces.
	var ws align.GWFAWorkspace
	d := gapDist(&ws, g, walk[0], 0, seq, len(seq), nil)
	if d > len(seq)/100 {
		t.Fatalf("identical 9 kbp gap measured distance %d", d)
	}
	// A divergent gap stops the moment the budget is spent.
	div := randSeqMC(rng, 9000)
	budget := 9000 * 6 / 100
	if d := gapDist(&ws, g, walk[0], 0, div, budget, nil); d != budget+1 {
		t.Fatalf("random 9 kbp gap measured distance %d, want budget+1 = %d", d, budget+1)
	}
}
