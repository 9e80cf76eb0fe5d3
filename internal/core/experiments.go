package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/layout"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/sched"
	"pangenomicsbench/internal/seqmap"
	"pangenomicsbench/internal/simt"
	"pangenomicsbench/internal/wfagpu"
)

// toolRun maps a read set with one tool and accumulates per-stage times.
type toolRun struct {
	name   string
	total  time.Duration
	stages seqmap.StageTimes
	reads  int
	bases  int
	kernel time.Duration // time inside the tool's extracted kernel stage
}

// runSeq2GraphTools executes the four tool models on their read sets, once
// per Suite: Table 1 and Fig. 2 share the run.
func (s *Suite) runSeq2GraphTools() ([]toolRun, error) {
	if s.tools != nil {
		return s.tools, nil
	}
	ctx := context.Background()
	mapAll := func(tool pipeline.ContextTool, reads []gensim.Read) toolRun {
		r := toolRun{name: tool.Name()}
		t0 := time.Now()
		for _, rd := range reads {
			_, st, _ := tool.MapCtx(ctx, rd.Seq, nil)
			r.stages.Add(st)
			r.reads++
			r.bases += len(rd.Seq)
		}
		r.total = time.Since(t0)
		return r
	}
	g, k, w := s.Pop.Graph, s.Cfg.K, s.Cfg.W
	vm, errVM := pipeline.NewVgMap(g, k, w)
	gf, errGF := pipeline.NewVgGiraffe(g, k, w)
	ga, errGA := pipeline.NewGraphAligner(g, k, w)
	mgLR, errLR := pipeline.NewMinigraph(g, k, w, false)
	mgCR, errCR := pipeline.NewMinigraph(g, k, w, true)
	if err := errors.Join(errVM, errGF, errGA, errLR, errCR); err != nil {
		return nil, err
	}
	var gwfaLR, gwfaCR seqmap.StageTimes
	mgLR.GWFATime, mgCR.GWFATime = &gwfaLR, &gwfaCR
	runs := []toolRun{mapAll(vm, s.ShortReads), mapAll(gf, s.ShortReads), mapAll(ga, s.LongReads), mapAll(mgLR, s.LongReads)}
	runs[3].kernel = gwfaLR.Chain

	asm := s.Pop.Haplotypes[0].Seq
	asm = asm[:min(len(asm), 120_000)]
	t0 := time.Now()
	_, st, _ := mgCR.MapCtx(ctx, asm, nil)
	runs = append(runs, toolRun{name: mgCR.Name(), total: time.Since(t0), stages: st, reads: 1, bases: len(asm), kernel: gwfaCR.Chain})

	s.tools = runs
	return runs, nil
}

// Table1 estimates full-genome mapping runtime for the four Seq2Graph tools
// and the BWA-MEM2 baseline, scaled to 30× coverage of a 3.1 Gbp genome as
// the paper does.
func (s *Suite) Table1() (Table, error) {
	runs, err := s.runSeq2GraphTools()
	if err != nil {
		return Table{}, err
	}
	// Seq2Seq baseline on the same short reads.
	m, err := seqmap.NewMapper(s.Pop.Ref, s.Cfg.K, s.Cfg.W)
	if err != nil {
		return Table{}, err
	}
	t0 := time.Now()
	bases := 0
	for _, r := range s.ShortReads {
		m.Map(r.Seq, nil, nil)
		bases += len(r.Seq)
	}
	// Clipped, so the append copies instead of writing past the shared memo.
	runs = append(slices.Clip(runs), toolRun{name: "BWA-MEM2", total: time.Since(t0), reads: len(s.ShortReads), bases: bases})

	const genomeBases = 3.1e9 * 30 // 30× coverage of a human genome
	tbl := Table{
		ID:     "table1",
		Title:  "Estimated Full Genome Assembly Runtime (extrapolated)",
		Header: []string{"Tool", "Measured", "Reads", "Est. full genome (h)"},
		Notes: []string{
			"extrapolated from measured per-base throughput to 30x coverage of 3.1 Gbp",
			"paper's ordering: VgMap 67.1h > Minigraph 20.5h > GraphAligner 9.1h > VgGiraffe 4.8h > BWA-MEM2 1.3h",
		},
	}
	for _, r := range runs {
		if r.bases == 0 {
			continue
		}
		perBase := r.total.Seconds() / float64(r.bases)
		hours := perBase * genomeBases / 3600
		tbl.Rows = append(tbl.Rows, []Cell{
			label(r.name), wall(r.total.Seconds(), Millis),
			model(float64(r.reads), Count), wall(hours, Fixed2),
		})
	}
	return tbl, nil
}

// Fig2 reports the Seq2Graph per-stage timing breakdown and the kernel
// fraction within its stage.
func (s *Suite) Fig2() (Table, error) {
	runs, err := s.runSeq2GraphTools()
	if err != nil {
		return Table{}, err
	}
	tbl := Table{
		ID:     "fig2",
		Title:  "Seq2Graph Timing Breakdown (stage fractions of total)",
		Header: []string{"Tool", "Seed", "Cluster/Chain", "Filter", "Align", "Kernel share"},
		Notes: []string{
			"paper shapes: Giraffe filter-dominant (GBWT); GraphAligner ~90% align (GBV);",
			"Minigraph chain-heavy with GWFA inside chaining; VgMap spread across stages",
		},
	}
	for _, r := range runs {
		tot := r.stages.Total().Seconds()
		if tot == 0 {
			continue
		}
		kernelShare := label("-")
		switch {
		case r.kernel > 0 && r.stages.Chain > 0:
			kernelShare = wall(r.kernel.Seconds()/r.stages.Chain.Seconds(), Percent)
		case r.name == "VgMap" || r.name == "GraphAligner":
			kernelShare = label("align stage")
		case r.name == "VgGiraffe":
			kernelShare = label("filter stage")
		}
		row := []Cell{label(r.name)}
		for _, d := range []time.Duration{r.stages.Seed, r.stages.Chain, r.stages.Filter, r.stages.Align} {
			row = append(row, wall(d.Seconds()/tot, Percent))
		}
		tbl.Rows = append(tbl.Rows, append(row, kernelShare))
	}
	return tbl, nil
}

// Fig3 reports the graph-building per-stage breakdown for both pipelines.
func (s *Suite) Fig3() (Table, error) {
	names, seqs := s.Pop.AssemblyView()
	pcfg := build.DefaultPGGBConfig()
	pres, err := build.PGGB(context.Background(), names, seqs, pcfg, nil)
	if err != nil {
		return Table{}, err
	}
	mres, err := build.MinigraphCactus(context.Background(), names, seqs, build.DefaultMCConfig(), nil)
	if err != nil {
		return Table{}, err
	}
	tbl := Table{
		ID:     "fig3",
		Title:  "Pangenome Graph Building Pipeline Breakdown",
		Header: []string{"Pipeline", "Alignment", "Induction", "Polishing", "Visualization", "Total", "Kernel notes"},
		Notes: []string{
			"PGGB: TC dominates induction (>75% in the paper); POA dominates polishing (~80%)",
			"MC: GWFA inside alignment (via minigraph); abPOA inside induction",
		},
	}
	row := func(b build.StageBreakdown, note string) []Cell {
		row := []Cell{label(b.Pipeline)}
		for _, d := range []time.Duration{b.Alignment, b.Induction, b.Polishing, b.Layout, b.Total()} {
			// Microsecond resolution keeps small-scale stage times nonzero.
			row = append(row, wall(d.Seconds(), Micros))
		}
		// The note quotes wall times, so it is a wall cell of text.
		return append(row, Cell{Kind: Wall, Text: note, Format: Plain})
	}
	pNote := fmt.Sprintf("TC=%d%% of induction, POA=%d%% of polishing",
		int(100*pres.Breakdown.TCTime.Seconds()/nonzero(pres.Breakdown.Induction.Seconds())),
		int(100*pres.Breakdown.POATime.Seconds()/nonzero(pres.Breakdown.Polishing.Seconds())))
	mNote := fmt.Sprintf("GWFA=%v, POA=%v",
		mres.Breakdown.GWFA.Round(time.Microsecond), mres.Breakdown.POATime.Round(time.Microsecond))
	tbl.Rows = append(tbl.Rows, row(pres.Breakdown, pNote), row(mres.Breakdown, mNote))
	return tbl, nil
}

func nonzero(v float64) float64 {
	if v <= 0 {
		return 1e-12
	}
	return v
}

// Tables23 reports the dataset inventory (the synthetic stand-ins for the
// paper's Tables 2 and 3).
func (s *Suite) Tables23() (Table, error) {
	ks, err := s.Kernels()
	if err != nil {
		return Table{}, err
	}
	tbl := Table{
		ID:     "table2-3",
		Title:  "Dataset Inventory (synthetic chr20 stand-in)",
		Header: []string{"Entry", "Inputs", "Input Type", "Parent Tool"},
	}
	stats := s.Pop.Graph.ComputeStats()
	tbl.Rows = append(tbl.Rows,
		labels("reference", fmt.Sprintf("%d bp", len(s.Pop.Ref)), "ancestral genome", "-"),
		labels("graph", fmt.Sprintf("%d nodes / %d edges", stats.Nodes, stats.Edges), fmt.Sprintf("avg node %.1f bp", stats.AvgNodeLen), "-"),
		labels("short reads", fmt.Sprintf("%d × %d bp", len(s.ShortReads), 150), "Illumina-like", "VgMap/Giraffe"),
		labels("long reads", fmt.Sprintf("%d × %d bp", len(s.LongReads), s.Cfg.LongLen), "HiFi-like", "GraphAligner/Minigraph"),
		[]Cell{label("assemblies"), model(float64(len(s.Pop.Haplotypes)), Count), label("haplotypes"), label("MC/PGGB")},
	)
	for _, k := range ks {
		tbl.Rows = append(tbl.Rows, []Cell{label(k.Name), model(float64(k.Inputs), Count), label(k.InputType), label(k.ParentTool)})
	}
	return tbl, nil
}

// Table4 measures kernel execution times.
func (s *Suite) Table4() (Table, error) {
	ks, err := s.Kernels()
	if err != nil {
		return Table{}, err
	}
	tbl := Table{
		ID:     "table4",
		Title:  "Kernel Measured Execution Time",
		Header: []string{"Kernel", "Time", "Inputs"},
		Notes:  []string{"paper (Machine B, full datasets): GBV 192s GSSW 35s GBWT 23s GWFA-cr 16657s GWFA-lr 720s PGSGD 285s TC 755s"},
	}
	for _, k := range ks {
		d, err := s.timed(k)
		if err != nil {
			return Table{}, err
		}
		tbl.Rows = append(tbl.Rows, []Cell{label(k.Name), wall(d.Seconds(), Micros), model(float64(k.Inputs), Count)})
	}
	return tbl, nil
}

// profileAll returns every registry kernel's report in registry order.
// Each kernel is profiled once per Suite (see profiled), so fig6/7/8 and
// table6 share one probed run.
func (s *Suite) profileAll() ([]perf.Report, error) {
	ks, err := s.Kernels()
	if err != nil {
		return nil, err
	}
	reports := make([]perf.Report, 0, len(ks))
	for _, k := range ks {
		rep, err := s.profiled(k)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// Fig6Table6 reports the top-down breakdown and IPC per kernel.
func (s *Suite) Fig6Table6() (Table, error) {
	reports, err := s.profileAll()
	if err != nil {
		return Table{}, err
	}
	tbl := Table{
		ID:     "fig6+table6",
		Title:  "Top-Down Microarchitectural Analysis and IPC",
		Header: []string{"Kernel", "Retiring", "FrontEnd", "BadSpec", "CoreBound", "MemBound", "IPC"},
		Notes: []string{
			"paper shapes: DP kernels (GSSW/GBV/GWFA) core-bound; GSSW also memory-bound;",
			"GBV high bad-speculation; GBWT not memory-bound; PGSGD memory-bound, IPC<1; TC retiring, highest IPC",
			"paper IPC: GSSW 1.77 GBV 2.22 GBWT 1.92 GWFA-cr 2.67 GWFA-lr 2.90 PGSGD 0.88 TC 3.14",
		},
	}
	for _, r := range reports {
		tbl.Rows = append(tbl.Rows, topDownRow(r))
	}
	return tbl, nil
}

// Fig7 reports misses per kilo-instruction per cache level.
func (s *Suite) Fig7() (Table, error) {
	reports, err := s.profileAll()
	if err != nil {
		return Table{}, err
	}
	tbl := Table{
		ID:     "fig7",
		Title:  "Misses per Kilo-Instruction (exclusive, Machine B hierarchy)",
		Header: []string{"Kernel", "L1 MPKI", "L2 MPKI", "L3 MPKI"},
		Notes: []string{
			"paper shapes: DP kernels miss mostly L1 and rarely L3 (small cache-friendly subgraphs);",
			"PGSGD misses at every level (random full-graph accesses)",
		},
	}
	for _, r := range reports {
		tbl.Rows = append(tbl.Rows, []Cell{label(r.Kernel), model(r.L1MPKI, Fixed2), model(r.L2MPKI, Fixed2), model(r.L3MPKI, Fixed2)})
	}
	return tbl, nil
}

// Fig8 reports the dynamic instruction mix per kernel.
func (s *Suite) Fig8() (Table, error) {
	reports, err := s.profileAll()
	if err != nil {
		return Table{}, err
	}
	classes := perf.Classes()
	header := []string{"Kernel"}
	for _, c := range classes {
		header = append(header, c.String())
	}
	tbl := Table{
		ID:     "fig8",
		Title:  "Dynamic Instruction Mix (hierarchical binning)",
		Header: header,
		Notes: []string{
			"paper shapes: GSSW vector+memory heavy; GWFA few vector ops (graph code defeats",
			"autovectorization); GBV scalar (64-bit words); PGSGD scalar-FP heavy; GBWT/TC scalar+memory",
		},
	}
	for _, r := range reports {
		row := []Cell{label(r.Kernel)}
		for _, c := range classes {
			row = append(row, model(r.Mix[c], Percent))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

// Fig5 reports simulated thread scaling (speedup relative to 4 threads) for
// the five workloads of the paper's figure.
func (s *Suite) Fig5() (Table, error) {
	workloads, err := s.scalingWorkloads()
	if err != nil {
		return Table{}, err
	}
	m := sched.MachineA()
	threads := []int{4, 14, 28, 56}
	tbl := Table{
		ID:     "fig5",
		Title:  "Thread Scaling (makespan simulation on Machine A, speedup vs 4 threads)",
		Header: []string{"Workload", "4", "14", "28", "56"},
		Notes: []string{
			"simulated from measured single-thread task costs (see DESIGN.md substitutions);",
			"paper shapes: mapping tools near-linear to 28 then HT drop; Minigraph-cr flat;",
			"seqwish plateaus ~4 threads; odgi-layout sublinear (sequential path index + barriers);",
			"PGGB-allpair (construction) caps at C(n,2) pair tasks + sequential merge;",
			"MC-growth chains per-assembly steps (parallel chunk maps, sequential induction)",
		},
	}
	for _, w := range workloads {
		sp := sched.Speedups(m, w, threads)
		row := []Cell{label(w.Name)}
		for _, v := range sp {
			row = append(row, wall(v, Fixed2))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

// scalingWorkloads builds the Fig. 5 workload models from measured costs.
func (s *Suite) scalingWorkloads() ([]sched.Workload, error) {
	ctx := context.Background()
	// Mapping tools: per-read independent tasks.
	measure := func(name string, tool pipeline.ContextTool, reads []gensim.Read) sched.Workload {
		var tasks []float64
		for _, r := range reads {
			t0 := time.Now()
			tool.MapCtx(ctx, r.Seq, nil)
			tasks = append(tasks, time.Since(t0).Seconds())
		}
		// Clamp outliers at 5× the median: single-read costs measured on a
		// busy host include GC/scheduler noise that a real per-read
		// distribution does not have.
		sorted := append([]float64(nil), tasks...)
		sort.Float64s(sorted)
		clamp := 5 * sorted[len(sorted)/2]
		for i := range tasks {
			tasks[i] = min(tasks[i], clamp)
		}
		// Replicate small measured batches to full-dataset size so tail
		// latency does not dominate (the paper's runs map 158k+ reads;
		// §5.1 notes small batches are tail-latency limited).
		for len(tasks) < 1024 {
			tasks = append(tasks, tasks...)
		}
		return sched.Workload{Name: name, Phases: []sched.Phase{{Name: "map", Tasks: tasks, MemFraction: 0.1}}}
	}
	g, k, w := s.Pop.Graph, s.Cfg.K, s.Cfg.W
	giraffe, errGF := pipeline.NewVgGiraffe(g, k, w)
	ga, errGA := pipeline.NewGraphAligner(g, k, w)
	mg, errMG := pipeline.NewMinigraph(g, k, w, true)
	tc, errTC := s.TCBuilder()
	if err := errors.Join(errGF, errGA, errMG, errTC); err != nil {
		return nil, err
	}
	out := []sched.Workload{measure("VgGiraffe", giraffe, s.ShortReads), measure("GraphAligner/Minigraph-lr", ga, s.LongReads)}

	// The construction workloads and Minigraph-cr use assemblies capped at
	// 60 kbp.
	names, seqs := s.Pop.AssemblyView()
	for i, seq := range seqs {
		seqs[i] = seq[:min(len(seq), 60_000)]
	}

	// Minigraph-cr: one indivisible task.
	t0 := time.Now()
	mg.MapCtx(ctx, seqs[0], nil)
	out = append(out, sched.Workload{Name: "Minigraph-cr", Phases: []sched.Phase{{
		Name: "map", Tasks: []float64{time.Since(t0).Seconds()}, MaxParallel: 1,
	}}})

	// seqwish: pipelined chunked transclosure + emission.
	t0 = time.Now()
	tc.Transclose(nil)
	tcTime := time.Since(t0).Seconds()
	const chunks = 16
	out = append(out, sched.Workload{Name: "seqwish", Phases: []sched.Phase{
		{Name: "unpack", Tasks: uniform(8, tcTime*0.05)},
		{Name: "transclose", Tasks: uniform(chunks, tcTime*0.7/chunks), EmitChunks: uniform(chunks, tcTime*0.3/chunks), MemFraction: 0.3},
		{Name: "gfa-out", Sequential: tcTime * 0.15},
	}})

	// PGGB all-vs-all construction (build.AllPairMatches as a sched workload):
	// C(n,2) independent pair-match tasks on the worker pool, then the
	// sequential canonical-order merge of the per-pair match blocks. With few
	// assemblies the task count bounds parallelism, so the curve plateaus far
	// below the mapping tools — the construction-side contrast in Fig. 5.
	var tasks []float64
	var blocks [][]build.MatchBlock
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			t0 = time.Now()
			blk, _, err := build.PairMatches(i, seqs[i], j, seqs[j], k, w, nil)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, time.Since(t0).Seconds())
			blocks = append(blocks, blk)
		}
	}
	t0 = time.Now()
	var merged []build.MatchBlock
	for _, blk := range blocks {
		merged = append(merged, blk...)
	}
	out = append(out, sched.Workload{Name: "PGGB-allpair", Phases: []sched.Phase{
		{Name: "pair-match", Tasks: tasks, MemFraction: 0.25},
		{Name: "merge", Sequential: time.Since(t0).Seconds()},
	}})

	// MC-growth: Minigraph-Cactus iterative construction. A serial
	// (Workers=1) run yields measured per-chunk mapping and per-step
	// induction costs (build.Result.Growth); the workload is the sequential
	// per-assembly chain with parallel chunk-mapping tasks inside each step.
	cfg := build.DefaultMCConfig()
	cfg.LayoutIterations = 0
	cfg.Workers = 1 // single-thread task costs feed the simulator
	mres, err := build.MinigraphCactus(ctx, names, seqs, cfg, nil)
	if err != nil {
		return nil, err
	}
	if len(mres.Growth) == 0 {
		return nil, fmt.Errorf("core: MC-growth: the build recorded no growth steps")
	}
	steps := make([]sched.GrowthStep, 0, len(mres.Growth))
	for _, st := range mres.Growth {
		tasks := make([]float64, 0, len(st.ChunkTimes))
		for _, ct := range st.ChunkTimes {
			tasks = append(tasks, ct.Seconds())
		}
		steps = append(steps, sched.GrowthStep{Tasks: tasks, Sequential: (st.Induction + st.IndexTime).Seconds()})
	}
	out = append(out, sched.GrowthChain("MC-growth", steps, 0.25))

	// odgi-layout: sequential path index + 30 barriered PGSGD iterations.
	t0 = time.Now()
	if _, err := layout.NewPathIndex(g); err != nil {
		return nil, err
	}
	idxTime := time.Since(t0).Seconds()
	l, err := layout.New(g, 3)
	if err != nil {
		return nil, err
	}
	params := layout.DefaultParams(g)
	params.Iterations = 1
	t0 = time.Now()
	l.Run(params, nil)
	iterTime := time.Since(t0).Seconds()
	phases := []sched.Phase{{Name: "path-index", Sequential: idxTime}}
	for i := 0; i < 30; i++ {
		phases = append(phases, sched.Phase{Name: "sgd-iter", Tasks: uniform(256, iterTime/256), MemFraction: 0.45})
	}
	return append(out, sched.Workload{Name: "odgi-layout", Phases: phases}), nil
}

func uniform(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Fig9 compares TSU (simulated GPU) against the CPU WFA across read
// lengths at 1% divergence. Both sides use modeled hardware time — the CPU
// through the perf pipeline model at Machine B's 2.9 GHz, the GPU through
// the SIMT simulator at the A6000's clock — so the comparison reflects the
// paper's hardware rather than this host.
func (s *Suite) Fig9() (Table, error) {
	const cpuClockGHz = 2.9 // Machine B (Table 5)
	lengths := []int{128, 256, 512, 1000, 2000, 5000, 10000}
	dev := simt.A6000()
	tbl := Table{
		ID:     "fig9",
		Title:  "GPU (TSU, simulated) vs CPU WFA (modeled) Timing, 1% error pairs",
		Header: []string{"Length", "CPU WFA (model)", "TSU (sim)", "GPU/CPU speedup", "Single-lane frac"},
		Notes: []string{
			"paper shape: TSU up to ~3.7x faster at short lengths, slower at 10 kbp;",
			"single-thread-diagonal fraction grows to ~74% at 10 kbp",
		},
	}
	// Constant-volume batching: every length aligns the same total base
	// count, as the TSU evaluation protocol does.
	const totalBases = 768_000
	for _, L := range lengths {
		pairs := s.TSUPairs(max(totalBases/L, 4), L)
		// CPU side: modeled cycles of a serial run.
		probe := perf.NewProbe()
		for _, p := range pairs {
			align.WFAEdit(p.A, p.B, probe)
		}
		cpuSecs := perf.Analyze(probe).Cycles / (cpuClockGHz * 1e9)
		cpu := time.Duration(cpuSecs * float64(time.Second))
		// GPU side (simulated).
		st, err := wfagpu.Align(dev, pairs)
		if err != nil {
			return Table{}, err
		}
		gpu := time.Duration(st.Metrics.TimeMS * float64(time.Millisecond))
		speedup := cpu.Seconds() / nonzero(gpu.Seconds())
		tbl.Rows = append(tbl.Rows, []Cell{
			model(float64(L), Count),
			model(cpu.Seconds(), Micros),
			model(gpu.Seconds(), Micros),
			model(speedup, Fixed2),
			model(st.SingleLaneFrac, Fixed2),
		})
	}
	return tbl, nil
}

// Table7 reports GPU utilization for TSU and PGSGD-GPU.
func (s *Suite) Table7() (Table, error) {
	dev := simt.A6000()
	// Enough alignments to fill every SM's resident-block slots several
	// times over (Table 3's TSU dataset has 50k pairs).
	pairs := s.TSUPairs(4*dev.SMs*16, 1000)
	tsu, err := wfagpu.Align(dev, pairs)
	if err != nil {
		return Table{}, err
	}
	l, err := layout.New(s.Pop.Graph, 7)
	if err != nil {
		return Table{}, err
	}
	params := layout.DefaultGPUParams(s.Pop.Graph.NumNodes() * 16)
	pgsgd, err := l.RunGPU(dev, params)
	if err != nil {
		return Table{}, err
	}
	params256 := params
	params256.BlockSize = 256
	pgsgd256, err := l.RunGPU(dev, params256)
	if err != nil {
		return Table{}, err
	}
	tbl := Table{
		ID:     "table7",
		Title:  "GPU Microarchitecture Utilization (SIMT simulator)",
		Header: []string{"Kernel", "Occupancy (theor.)", "Occupancy (achieved)", "Warp Util.", "Mem BW Util.", "Issue interval"},
		Notes: []string{
			"paper: TSU 32.97% occupancy / 69.72% warp util / 39.89% BW;",
			"PGSGD 53.85% / 88.31% / 41.91%; block 256 raises theoretical occupancy to 83.3%",
		},
	}
	add := func(name string, m simt.Metrics) {
		tbl.Rows = append(tbl.Rows, []Cell{
			label(name), model(m.TheoreticalOccupancy, Percent), model(m.AchievedOccupancy, Percent),
			model(m.WarpUtilization, Percent), model(m.MemBWUtilization, Percent), model(m.IssueIntervalCycles, Fixed2),
		})
	}
	add("TSU", tsu.Metrics)
	add("PGSGD (block 1024)", pgsgd)
	add("PGSGD (block 256)", pgsgd256)
	return tbl, nil
}

// Fig10 compares GSSW with the Seq2Seq SSW baseline on the same reads
// (case study §6.1).
func (s *Suite) Fig10() (Table, error) {
	refs, qrys, err := s.SSWInputs()
	if err != nil {
		return Table{}, err
	}
	ssw, err := s.profiled(Kernel{Name: "SSW", Inputs: len(refs), Run: func(p *perf.Probe) error {
		for i := range refs {
			align.StripedSW(refs[i], qrys[i], bio.DefaultScoring, p)
		}
		return nil
	}})
	if err != nil {
		return Table{}, err
	}
	k, err := s.kernelNamed("GSSW")
	if err != nil {
		return Table{}, err
	}
	gssw, err := s.profiled(k)
	if err != nil {
		return Table{}, err
	}

	tbl := Table{
		ID:     "fig10",
		Title:  "Seq2Seq (SSW) vs Seq2Graph (GSSW) Comparison",
		Header: []string{"Kernel", "Retiring", "FrontEnd", "BadSpec", "CoreBound", "MemBound", "IPC", "Stores/instr"},
		Notes: []string{
			"paper: GSSW has ~3x the memory stalls of SSW, from swizzle writes of the full DP matrix",
		},
	}
	for _, r := range []perf.Report{ssw, gssw} {
		tbl.Rows = append(tbl.Rows, append(topDownRow(r), model(storesPerInstr(r), Fixed2)))
	}
	return tbl, nil
}

// topDownRow is a kernel's Fig. 6 row: its top-down fractions and IPC.
func topDownRow(r perf.Report) []Cell {
	td := r.TopDown
	return []Cell{
		label(r.Kernel), model(td.Retiring, Percent), model(td.FrontEndBound, Percent), model(td.BadSpeculation, Percent),
		model(td.CoreBound, Percent), model(td.MemoryBound, Percent), model(td.IPC, Fixed2),
	}
}

// storesPerInstr is a report's modelled stores per instruction.
func storesPerInstr(r perf.Report) float64 {
	return float64(r.Stores) / float64(max(r.Instructions, 1))
}

// Fig11 compares GSSW on the M-Graph against the Split-M-Graph (case study
// §6.2). The M-Graph row is the registry's GSSW measurement.
func (s *Suite) Fig11() (Table, error) {
	mIn, err := s.GSSWInputs()
	if err != nil {
		return Table{}, err
	}
	mGraph, err := s.measureNamed("GSSW")
	if err != nil {
		return Table{}, err
	}
	// Split-M-Graph capture: re-run Vg Map on the node-split graph.
	split := s.SplitGraph(8)
	splitIn, err := s.captureGSSW(split)
	if err != nil {
		return Table{}, fmt.Errorf("core: Split-M-Graph: %w", err)
	}
	splitGraph, err := s.measure(gsswKernel("GSSW-split", splitIn, align.GSSW))
	if err != nil {
		return Table{}, err
	}

	row := func(name string, inputs []pipeline.GSSWInput, m measurement) []Cell {
		var subBases int
		for _, in := range inputs {
			subBases += in.Sub.TotalSeqLen()
		}
		td := m.report.TopDown
		return []Cell{
			label(name), model(float64(len(inputs)), Count), model(float64(subBases)/float64(len(inputs)), Fixed2),
			model(td.Cycles, Count), model(td.MemoryBound, Percent), model(td.IPC, Fixed2),
			wall(m.wall.Seconds(), Micros),
		}
	}

	tbl := Table{
		ID:     "fig11",
		Title:  "M-Graph vs Split-M-Graph with GSSW",
		Header: []string{"Graph", "Alignments", "Avg subgraph bp", "Model cycles", "MemBound", "IPC", "Wall time"},
		Notes: []string{
			"paper: splitting nodes (≤8 bp) shrinks extracted subgraphs (450→233 bp avg),",
			"reducing GSSW cycles at similar microarchitectural utilization",
		},
	}
	mStats := s.Pop.Graph.ComputeStats()
	spStats := split.ComputeStats()
	tbl.Notes = append(tbl.Notes, fmt.Sprintf("avg node length: M=%.2f bp, Split-M=%.2f bp", mStats.AvgNodeLen, spStats.AvgNodeLen))
	tbl.Rows = append(tbl.Rows, row("M-Graph", mIn, mGraph), row("Split-M-Graph", splitIn, splitGraph))
	return tbl, nil
}

// experiments is the one experiment table, in canonical order: each ID,
// its aliases, and its driver. The last two are extension studies beyond
// the paper's figures: the §6.1 proposed optimization, and the §5.2 index
// contrast.
var experiments = []struct {
	id      string
	aliases []string
	run     func(*Suite) (Table, error)
}{
	{"table1", nil, (*Suite).Table1},
	{"table2-3", []string{"table2", "table3"}, (*Suite).Tables23},
	{"table4", nil, (*Suite).Table4},
	{"fig2", nil, (*Suite).Fig2},
	{"fig3", nil, (*Suite).Fig3},
	{"fig5", nil, (*Suite).Fig5},
	{"fig6+table6", []string{"fig6", "table6"}, (*Suite).Fig6Table6},
	{"fig7", nil, (*Suite).Fig7},
	{"fig8", nil, (*Suite).Fig8},
	{"fig9", nil, (*Suite).Fig9},
	{"table7", nil, (*Suite).Table7},
	{"fig10", nil, (*Suite).Fig10},
	{"fig11", nil, (*Suite).Fig11},
	{"opt-gssw", nil, (*Suite).OptGSSW},
	{"gbwt-vs-fmindex", nil, (*Suite).GBWTvsFMIndex},
}

// Experiments lists all experiment IDs in canonical order.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// lookup returns the driver of an experiment ID or alias.
func lookup(id string) (func(*Suite) (Table, error), bool) {
	for _, e := range experiments {
		if e.id == id || slices.Contains(e.aliases, id) {
			return e.run, true
		}
	}
	return nil, false
}

// Run dispatches an experiment by ID.
func (s *Suite) Run(id string) (Table, error) {
	if run, ok := lookup(id); ok {
		return run(s)
	}
	ids := Experiments()
	sort.Strings(ids)
	return Table{}, fmt.Errorf("core: unknown experiment %q (known: %v)", id, ids)
}
