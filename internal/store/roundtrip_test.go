package store_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/gfa"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/store"
)

func testPop(t testing.TB) *gensim.Population {
	t.Helper()
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 3000
	cfg.Haplotypes = 3
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// testReads slices deterministic query windows out of the assemblies.
func testReads(pop *gensim.Population, n, length int) [][]byte {
	_, seqs := pop.AssemblyView()
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		seq := seqs[i%len(seqs)]
		off := (i * 311) % (len(seq) - length)
		out = append(out, seq[off:off+length])
	}
	return out
}

func gfaText(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gfa.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripDifferential is the satellite (a) acceptance test:
// Load(Save(x)) reproduces the exact serving state — the decoded graph
// serializes to byte-identical GFA, the decoded indexes re-encode to
// byte-identical binary, and a tool rehydrated from the decoded state maps
// every query identically to the originally-built tool, for all four
// mapping kernels.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	pop := testPop(t)
	g := pop.Graph
	const k, w = 15, 10
	short := testReads(pop, 24, 100)
	long := testReads(pop, 12, 400)

	type kernel struct {
		name  string
		reads [][]byte
		mk    func() (pipeline.ContextTool, error)
		remk  func(d *store.SnapshotData) (pipeline.ContextTool, error)
		gbwt  bool
	}
	kernels := []kernel{
		{
			name: "giraffe", reads: short, gbwt: true,
			mk: func() (pipeline.ContextTool, error) { return pipeline.NewVgGiraffe(g, k, w) },
			remk: func(d *store.SnapshotData) (pipeline.ContextTool, error) {
				return pipeline.NewVgGiraffeFromIndexes(d.Graph, d.Index, d.Haplotypes)
			},
		},
		{
			name: "vgmap", reads: short,
			mk: func() (pipeline.ContextTool, error) { return pipeline.NewVgMap(g, k, w) },
			remk: func(d *store.SnapshotData) (pipeline.ContextTool, error) {
				return pipeline.NewVgMapFromIndex(d.Graph, d.Index)
			},
		},
		{
			name: "graphaligner", reads: long,
			mk: func() (pipeline.ContextTool, error) { return pipeline.NewGraphAligner(g, k, w) },
			remk: func(d *store.SnapshotData) (pipeline.ContextTool, error) {
				return pipeline.NewGraphAlignerFromIndex(d.Graph, d.Index)
			},
		},
		{
			name: "minigraph-lr", reads: long,
			mk: func() (pipeline.ContextTool, error) { return pipeline.NewMinigraph(g, k, w, false) },
			remk: func(d *store.SnapshotData) (pipeline.ContextTool, error) {
				return pipeline.NewMinigraphFromIndex(d.Graph, d.Index, false)
			},
		},
	}

	for _, kr := range kernels {
		t.Run(kr.name, func(t *testing.T) {
			orig, err := kr.mk()
			if err != nil {
				t.Fatal(err)
			}
			data := &store.SnapshotData{
				ID: "rt-" + kr.name, Tool: kr.name, K: k, W: w,
				Graph: g, Index: orig.(pipeline.Indexed).GraphIndex(),
			}
			if kr.gbwt {
				data.Haplotypes = orig.(pipeline.HaplotypeIndexed).Haplotypes()
			}
			image, err := data.Encode()
			if err != nil {
				t.Fatal(err)
			}
			secs, err := store.DecodeSections(image)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := store.DecodeSnapshot(secs)
			if err != nil {
				t.Fatal(err)
			}
			if dec.ID != data.ID || dec.Tool != kr.name || dec.K != k || dec.W != w {
				t.Fatalf("metadata changed: %+v", dec)
			}

			// The decoded graph is the graph: byte-identical GFA output.
			if !bytes.Equal(gfaText(t, g), gfaText(t, dec.Graph)) {
				t.Fatal("decoded graph writes different GFA")
			}
			// The decoded indexes are the indexes: re-encoding is
			// byte-identical.
			if !bytes.Equal(data.Index.AppendBinary(nil), dec.Index.AppendBinary(nil)) {
				t.Fatal("decoded minimizer index re-encodes differently")
			}
			if kr.gbwt && !bytes.Equal(data.Haplotypes.AppendBinary(nil), dec.Haplotypes.AppendBinary(nil)) {
				t.Fatal("decoded GBWT re-encodes differently")
			}

			// The rehydrated tool maps byte-identically to the saved one.
			re, err := kr.remk(dec)
			if err != nil {
				t.Fatal(err)
			}
			for i, read := range kr.reads {
				want, _, _ := orig.MapCtx(context.Background(), read, nil)
				got, _, _ := re.MapCtx(context.Background(), read, nil)
				if want != got {
					t.Fatalf("read %d maps differently after round trip:\n  saved:  %+v\n  loaded: %+v", i, want, got)
				}
			}
		})
	}
}

// TestDecodersRejectCorruptBlobs: a section whose CRC verifies but whose
// payload is malformed (wrong layout, truncation below the framing layer)
// must fail its decoder cleanly — never return a half-built structure.
func TestDecodersRejectCorruptBlobs(t *testing.T) {
	pop := testPop(t)
	tool, err := pipeline.NewVgGiraffe(pop.Graph, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	graphBin := pop.Graph.AppendBinary(nil)
	idxBin := tool.GraphIndex().AppendBinary(nil)
	hapBin := tool.Haplotypes().AppendBinary(nil)

	for _, cut := range []int{1, len(graphBin) / 3, len(graphBin) - 2} {
		if _, err := graph.DecodeGraph(graphBin[:cut]); err == nil {
			t.Errorf("graph blob truncated to %d decoded", cut)
		}
	}
	if _, err := graph.DecodeGraph(append(append([]byte{}, graphBin...), 0xEE)); err == nil {
		t.Error("graph blob with trailing byte decoded")
	}
	for _, cut := range []int{3, len(idxBin) / 2} {
		if _, err := minimizer.DecodeGraphIndex(idxBin[:cut]); err == nil {
			t.Errorf("minimizer blob truncated to %d decoded", cut)
		}
	}
	if _, err := minimizer.DecodeGraphIndex(append(append([]byte{}, idxBin...), 9)); err == nil {
		t.Error("minimizer blob with trailing byte decoded")
	}

	// GBWT decode: truncation errors. (Import side effect: gbwt is reached
	// through the snapshot decoder below.)
	badSecs := func(mutate func(map[string][]byte)) map[string][]byte {
		data := &store.SnapshotData{
			ID: "x", Tool: "giraffe", K: 15, W: 10,
			Graph: pop.Graph, Index: tool.GraphIndex(), Haplotypes: tool.Haplotypes(),
		}
		image, err := data.Encode()
		if err != nil {
			t.Fatal(err)
		}
		secs, err := store.DecodeSections(image)
		if err != nil {
			t.Fatal(err)
		}
		mutate(secs)
		return secs
	}
	if _, err := store.DecodeSnapshot(badSecs(func(s map[string][]byte) {
		s[store.SectionGBWT] = hapBin[:len(hapBin)/2]
	})); err == nil {
		t.Error("truncated GBWT section decoded")
	}
	if _, err := store.DecodeSnapshot(badSecs(func(s map[string][]byte) {
		delete(s, store.SectionGBWT)
	})); err == nil {
		t.Error("META promises a GBWT but the section is gone — decoded anyway")
	}
	if _, err := store.DecodeSnapshot(badSecs(func(s map[string][]byte) {
		delete(s, store.SectionMeta)
	})); err == nil {
		t.Error("snapshot without META decoded")
	}
	if _, err := store.DecodeSnapshot(badSecs(func(s map[string][]byte) {
		s[store.SectionMeta] = append(s[store.SectionMeta], 0)
	})); err == nil {
		t.Error("META with trailing bytes decoded")
	}
}

// TestRehydrateRejectsIndexOutsideGraph: each section of a snapshot decodes
// on its own, so an index naming nodes that the decoded graph lacks passes
// DecodeSnapshot; served, it would panic on the first map call (graph: node
// N out of range). Every tool constructor must reject it with ErrCorrupt
// naming the section at fault.
func TestRehydrateRejectsIndexOutsideGraph(t *testing.T) {
	pop := testPop(t)
	g := pop.Graph
	tool, err := pipeline.NewVgGiraffe(g, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	image, err := (&store.SnapshotData{
		ID: "x", Tool: "giraffe", K: 15, W: 10,
		Graph: g, Index: tool.GraphIndex(), Haplotypes: tool.Haplotypes(),
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A GBWT over a larger population's graph holds node IDs past g's.
	bigCfg := gensim.DefaultConfig()
	bigCfg.RefLen = 12_000
	bigCfg.Haplotypes = 3
	big, err := gensim.Simulate(bigCfg)
	if err != nil {
		t.Fatal(err)
	}
	if big.Graph.NumNodes() <= g.NumNodes() {
		t.Fatalf("larger population has %d nodes, not more than %d", big.Graph.NumNodes(), g.NumNodes())
	}
	bigTool, err := pipeline.NewVgGiraffe(big.Graph, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	bigHap := bigTool.Haplotypes().AppendBinary(nil)
	// The check runs on every load: one walk, no allocation when it passes.
	if n := testing.AllocsPerRun(10, func() {
		if tool.GraphIndex().Validate(g) != nil || tool.Haplotypes().Validate(g) != nil {
			t.Fatal("a built index fails validation against its own graph")
		}
	}); n != 0 {
		t.Errorf("validating a good snapshot allocates %v times", n)
	}

	// occurrences rewrites every (node, offset) of the MINIDX payload:
	// u32 k, u32 w, u64 hashCount, per hash u64 hash, u64 occCount and
	// occCount × (u32 node, u32 offset).
	occurrences := func(edit func(node, off uint32) (uint32, uint32)) func(map[string][]byte) {
		return func(secs map[string][]byte) {
			b := append([]byte(nil), secs[store.SectionGraphIndex]...)
			le := binary.LittleEndian
			p := 16
			for h := le.Uint64(b[8:]); h > 0; h-- {
				n := le.Uint64(b[p+8:])
				p += 16
				for ; n > 0; n-- {
					node, off := edit(le.Uint32(b[p:]), le.Uint32(b[p+4:]))
					le.PutUint32(b[p:], node)
					le.PutUint32(b[p+4:], off)
					p += 8
				}
			}
			secs[store.SectionGraphIndex] = b
		}
	}
	for _, tc := range []struct {
		name, section string
		mutate        func(map[string][]byte)
		giraffeOnly   bool
	}{
		{"index node past the graph", store.SectionGraphIndex,
			occurrences(func(_, off uint32) (uint32, uint32) { return uint32(g.NumNodes() + 7), off }), false},
		{"index offset past its node", store.SectionGraphIndex,
			occurrences(func(node, _ uint32) (uint32, uint32) { return node, 1 << 20 }), false},
		{"GBWT node past the graph", store.SectionGBWT,
			func(secs map[string][]byte) { secs[store.SectionGBWT] = bigHap }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			secs, err := store.DecodeSections(image)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(secs)
			data, err := store.DecodeSnapshot(secs)
			if err != nil {
				t.Fatalf("the section alone must decode, so the cross-check is what rejects it: %v", err)
			}
			ctors := map[string]func() error{
				"giraffe": func() error {
					_, err := pipeline.NewVgGiraffeFromIndexes(data.Graph, data.Index, data.Haplotypes)
					return err
				},
			}
			if !tc.giraffeOnly {
				ctors["vg map"] = func() error { _, err := pipeline.NewVgMapFromIndex(data.Graph, data.Index); return err }
				ctors["graphaligner"] = func() error {
					_, err := pipeline.NewGraphAlignerFromIndex(data.Graph, data.Index)
					return err
				}
				ctors["minigraph"] = func() error {
					_, err := pipeline.NewMinigraphFromIndex(data.Graph, data.Index, false)
					return err
				}
			}
			for name, ctor := range ctors {
				err := ctor()
				if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), tc.section+" section") {
					t.Errorf("%s: err = %v, want ErrCorrupt naming the %s section", name, err, tc.section)
				}
			}
		})
	}
}
