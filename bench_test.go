// Package bench is the benchmark harness of PangenomicsBench-Go: one
// testing.B benchmark per paper table and figure (see DESIGN.md §3 for the
// experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// Kernel benches (BenchmarkKernel_*) time one full pass over the captured
// kernel corpus — the Table 4 measurement. Experiment benches
// (BenchmarkTable*/BenchmarkFig*) time the full experiment drivers.
package bench

import (
	"context"
	"sync"
	"testing"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/core"
	"pangenomicsbench/internal/fmindex"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/layout"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/seqmap"
	"pangenomicsbench/internal/simt"
	"pangenomicsbench/internal/wfagpu"
)

var (
	suiteOnce sync.Once
	suite     *core.Suite
	suiteErr  error
)

func getSuite(b testing.TB) *core.Suite {
	suiteOnce.Do(func() {
		suite, suiteErr = core.NewSuite(core.Small)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func kernelBench(b *testing.B, name string) {
	s := getSuite(b)
	ks, err := s.Kernels()
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range ks {
		if k.Name != name {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := k.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("kernel %s not found", name)
}

// Table 4: kernel execution times.
func BenchmarkKernel_GSSW(b *testing.B)   { kernelBench(b, "GSSW") }
func BenchmarkKernel_GBWT(b *testing.B)   { kernelBench(b, "GBWT") }
func BenchmarkKernel_GBV(b *testing.B)    { kernelBench(b, "GBV") }
func BenchmarkKernel_GWFAlr(b *testing.B) { kernelBench(b, "GWFA-lr") }
func BenchmarkKernel_GWFAcr(b *testing.B) { kernelBench(b, "GWFA-cr") }
func BenchmarkKernel_TC(b *testing.B)     { kernelBench(b, "TC") }
func BenchmarkKernel_PGSGD(b *testing.B)  { kernelBench(b, "PGSGD") }

// Table 1 / Fig. 2: end-to-end tool mapping (per-read cost of each tool).
func benchTool(b *testing.B, mk func(s *core.Suite) (pipeline.ContextTool, []gensim.Read, error)) {
	s := getSuite(b)
	tool, reads, err := mk(s)
	if err != nil {
		b.Fatal(err)
	}
	bases := 0
	for _, r := range reads {
		bases += len(r.Seq)
	}
	b.SetBytes(int64(bases))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reads {
			tool.MapCtx(context.Background(), r.Seq, nil)
		}
	}
}

func BenchmarkTable1_VgMap(b *testing.B) {
	benchTool(b, func(s *core.Suite) (pipeline.ContextTool, []gensim.Read, error) {
		t, err := pipeline.NewVgMap(s.Pop.Graph, s.Cfg.K, s.Cfg.W)
		return t, s.ShortReads, err
	})
}

func BenchmarkTable1_VgGiraffe(b *testing.B) {
	benchTool(b, func(s *core.Suite) (pipeline.ContextTool, []gensim.Read, error) {
		t, err := pipeline.NewVgGiraffe(s.Pop.Graph, s.Cfg.K, s.Cfg.W)
		return t, s.ShortReads, err
	})
}

func BenchmarkTable1_GraphAligner(b *testing.B) {
	benchTool(b, func(s *core.Suite) (pipeline.ContextTool, []gensim.Read, error) {
		t, err := pipeline.NewGraphAligner(s.Pop.Graph, s.Cfg.K, s.Cfg.W)
		return t, s.LongReads, err
	})
}

func BenchmarkTable1_MinigraphLR(b *testing.B) {
	benchTool(b, func(s *core.Suite) (pipeline.ContextTool, []gensim.Read, error) {
		t, err := pipeline.NewMinigraph(s.Pop.Graph, s.Cfg.K, s.Cfg.W, false)
		return t, s.LongReads, err
	})
}

func BenchmarkTable1_BWAMEM2Baseline(b *testing.B) {
	s := getSuite(b)
	m, err := seqmap.NewMapper(s.Pop.Ref, s.Cfg.K, s.Cfg.W)
	if err != nil {
		b.Fatal(err)
	}
	bases := 0
	for _, r := range s.ShortReads {
		bases += len(r.Seq)
	}
	b.SetBytes(int64(bases))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range s.ShortReads {
			m.Map(r.Seq, nil, nil)
		}
	}
}

// Fig. 2 (stage breakdown driver).
func BenchmarkFig2_Breakdown(b *testing.B) {
	s := getSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 3: graph construction pipelines.
func BenchmarkFig3_PGGB(b *testing.B) {
	s := getSuite(b)
	names, seqs := s.Pop.AssemblyView()
	cfg := build.DefaultPGGBConfig()
	cfg.LayoutIterations = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build.PGGB(context.Background(), names, seqs, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_MinigraphCactus(b *testing.B) {
	s := getSuite(b)
	names, seqs := s.Pop.AssemblyView()
	cfg := build.DefaultMCConfig()
	cfg.LayoutIterations = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build.MinigraphCactus(context.Background(), names, seqs, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial-pool MC run: compare against the default (Workers = GOMAXPROCS)
// bench above to see the parallel chunk-mapping win; output is identical.
func BenchmarkFig3_MinigraphCactusSerial(b *testing.B) {
	s := getSuite(b)
	names, seqs := s.Pop.AssemblyView()
	cfg := build.DefaultMCConfig()
	cfg.LayoutIterations = 2
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build.MinigraphCactus(context.Background(), names, seqs, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 5: thread-scaling makespan simulation.
func BenchmarkFig5_ScalingSim(b *testing.B) {
	s := getSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 6 / Table 6 / Fig. 7 / Fig. 8: profiled kernel characterization.
func BenchmarkFig6_ProfiledGSSW(b *testing.B) {
	s := getSuite(b)
	inputs, err := s.GSSWInputs()
	if err != nil {
		b.Fatal(err)
	}
	sc := bio.DefaultScoring
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := perf.NewProbe()
		for _, in := range inputs {
			if _, err := align.GSSW(in.Sub, in.Query, sc, probe); err != nil {
				b.Fatal(err)
			}
		}
		if perf.Analyze(probe).IPC <= 0 {
			b.Fatal("no IPC")
		}
	}
}

func BenchmarkFig7_CacheSim(b *testing.B) {
	s := getSuite(b)
	inputs, err := s.GBVInputs()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := perf.NewProbe()
		for _, in := range inputs {
			if _, err := align.GBV(in.Sub, in.Query, probe); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig8_InstructionMix(b *testing.B) {
	s := getSuite(b)
	queries, err := s.GBWTInputs()
	if err != nil {
		b.Fatal(err)
	}
	ks, err := s.Kernels()
	if err != nil {
		b.Fatal(err)
	}
	_ = queries
	var gbwtKernel core.Kernel
	for _, k := range ks {
		if k.Name == "GBWT" {
			gbwtKernel = k
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := perf.NewProbe()
		if err := gbwtKernel.Run(probe); err != nil {
			b.Fatal(err)
		}
		if len(probe.Mix()) == 0 {
			b.Fatal("no mix")
		}
	}
}

// Fig. 9 / Table 7: GPU simulation.
func BenchmarkFig9_TSUShort(b *testing.B) {
	s := getSuite(b)
	pairs := s.TSUPairs(32, 128)
	dev := simt.A6000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wfagpu.Align(dev, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_TSULong(b *testing.B) {
	s := getSuite(b)
	pairs := s.TSUPairs(4, 10000)
	dev := simt.A6000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wfagpu.Align(dev, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_CPUWFA(b *testing.B) {
	s := getSuite(b)
	pairs := s.TSUPairs(32, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			align.WFAEdit(p.A, p.B, nil)
		}
	}
}

func BenchmarkTable7_PGSGDGPU(b *testing.B) {
	s := getSuite(b)
	l, err := layout.New(s.Pop.Graph, 7)
	if err != nil {
		b.Fatal(err)
	}
	dev := simt.A6000()
	params := layout.DefaultGPUParams(20000)
	params.Iterations = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunGPU(dev, params); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 10: SSW on the reads whose graph alignment is BenchmarkKernel_GSSW.
func BenchmarkFig10_SSW(b *testing.B) {
	s := getSuite(b)
	refs, qrys, err := s.SSWInputs()
	if err != nil {
		b.Fatal(err)
	}
	sc := bio.DefaultScoring
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range refs {
			align.StripedSW(refs[j], qrys[j], sc, nil)
		}
	}
}

// Extension: the §6.1 optimization ablation — GSSWLean on the corpus
// BenchmarkKernel_GSSW runs in full.
func BenchmarkOptGSSW_Lean(b *testing.B) {
	s := getSuite(b)
	inputs, err := s.GSSWInputs()
	if err != nil {
		b.Fatal(err)
	}
	sc := bio.DefaultScoring
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := align.GSSWLean(in.Sub, in.Query, sc, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Extension: index contrast — FM-index count (GBWT find is
// BenchmarkKernel_GBWT).
func BenchmarkExt_FMIndexCount(b *testing.B) {
	s := getSuite(b)
	idx, err := fmindex.New(s.Pop.Ref)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range s.ShortReads {
			idx.Count(r.Seq[:24], nil)
		}
	}
}

// Fig. 11: GSSW on the split graph.
func BenchmarkFig11_SplitGraphGSSW(b *testing.B) {
	s := getSuite(b)
	split := s.SplitGraph(8)
	tool, err := pipeline.NewVgMap(split, s.Cfg.K, s.Cfg.W)
	if err != nil {
		b.Fatal(err)
	}
	var inputs []pipeline.GSSWInput
	tool.Capture = &inputs
	for _, r := range s.ShortReads {
		tool.MapCtx(context.Background(), r.Seq, nil)
	}
	sc := bio.DefaultScoring
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := align.GSSW(in.Sub, in.Query, sc, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
