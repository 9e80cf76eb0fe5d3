package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/core"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/layout"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/seqwish"
	"pangenomicsbench/internal/simt"
	"pangenomicsbench/internal/wfagpu"
)

// offlineTool is one tool's quarter of an offline_map round.
type offlineTool struct {
	name string // layer name: giraffe, vgmap, graphaligner, minigraph
	tool pipeline.ContextTool
	// reads is what every round maps with this tool, sized so that the four
	// tools take about a quarter of a round each at the baseline commit.
	// Every round maps the same reads, so op latencies form one mode and the
	// median does not hop between chunks of unequal cost.
	reads   [][]byte
	want    []pipeline.Result // serial MapCtx result of every read
	results []pipeline.Result
	stages  []pipeline.StageTimes
}

// offlineMap is the offline_map instance: no service and no queue, one
// goroutine calling ContextTool.MapBatch directly on the simulator's truth
// graph, one batch per tool per round.
type offlineMap struct {
	pop   *gensim.Population
	tools []*offlineTool
	short []gensim.Read
	long  []gensim.Read
	genS  float64
}

func setupOfflineMap(p params) (instance, error) {
	refLen, batch := 300_000, [4]int{512, 8, 32, 12}
	if p.smoke {
		refLen, batch = 20_000, [4]int{32, 2, 2, 1}
	}
	t0 := time.Now()
	cfg := gensim.DefaultConfig()
	cfg.RefLen, cfg.Haplotypes, cfg.Seed = refLen, 8, p.seed
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	sc := gensim.ShortReadConfig(batch[0])
	sc.Seed = p.seed + 1
	short, err := pop.SimulateReads(sc)
	if err != nil {
		return nil, err
	}
	lc := gensim.LongReadConfig(batch[2])
	lc.Length, lc.Seed = 1_000, p.seed+2
	long, err := pop.SimulateReads(lc)
	if err != nil {
		return nil, err
	}
	o := &offlineMap{pop: pop, short: short, long: long, genS: time.Since(t0).Seconds()}

	const k, w = 15, 10
	g := pop.Graph
	giraffe, err := pipeline.NewVgGiraffe(g, k, w)
	if err != nil {
		return nil, err
	}
	vgmap, err := pipeline.NewVgMapFromIndex(g, giraffe.GraphIndex())
	if err != nil {
		return nil, err
	}
	ga, err := pipeline.NewGraphAlignerFromIndex(g, giraffe.GraphIndex())
	if err != nil {
		return nil, err
	}
	mg, err := pipeline.NewMinigraphFromIndex(g, giraffe.GraphIndex(), false)
	if err != nil {
		return nil, err
	}
	for i, t := range []struct {
		name  string
		tool  pipeline.ContextTool
		reads []gensim.Read
	}{{"giraffe", giraffe, short}, {"vgmap", vgmap, short}, {"graphaligner", ga, long}, {"minigraph", mg, long}} {
		ot := &offlineTool{name: t.name, tool: t.tool,
			results: make([]pipeline.Result, batch[i]),
			stages:  make([]pipeline.StageTimes, batch[i])}
		// Reference: the serial MapCtx result of every read. The batched
		// path must reproduce it, and the reads must map — a tool that stops
		// mapping is not faster.
		mapped := 0
		for _, r := range t.reads[:batch[i]] {
			res, _, err := t.tool.MapCtx(context.Background(), r.Seq, nil)
			if err != nil {
				return nil, err
			}
			if res.Mapped {
				mapped++
			}
			ot.reads = append(ot.reads, r.Seq)
			ot.want = append(ot.want, res)
		}
		if share := float64(mapped) / float64(batch[i]); share < 0.9 {
			return nil, fmt.Errorf("%s mapped only %.2f of its reads, want ≥ 0.9", t.name, share)
		}
		o.tools = append(o.tools, ot)
	}
	for i := 0; i < 2; i++ { // warm-up: one round fills every tool's scratch pool
		if err := o.op(0, i, nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (o *offlineMap) op(_, i int, tr *opTrace) error {
	t0 := time.Now()
	// The root is closed below; children are clipped against its extent, so
	// it starts open-ended.
	root := tr.add(0, "bench.round", t0, time.Hour)
	var firstErr error
	for _, t := range o.tools {
		c0 := time.Now()
		n, err := t.tool.MapBatch(context.Background(), t.reads, t.results, t.stages, nil)
		d := time.Since(c0)
		if err != nil {
			return fmt.Errorf("%s MapBatch stopped after %d reads: %w", t.name, n, err)
		}
		if tr != nil {
			id := tr.add(root, "pipeline."+t.name+".map_batch", c0, d)
			tr.count(id, "reads", int64(len(t.reads)))
			var sum pipeline.StageTimes
			for _, st := range t.stages {
				sum.Seed += st.Seed
				sum.Chain += st.Chain
				sum.Filter += st.Filter
				sum.Align += st.Align
			}
			traceStages(tr, id, t.name, c0, sum)
		}
		for j := range t.want {
			if t.results[j] != t.want[j] && firstErr == nil {
				firstErr = fmt.Errorf("%s round %d read %d: MapBatch gave %+v, serial MapCtx %+v", t.name, i, j, t.results[j], t.want[j])
			}
		}
	}
	if tr != nil {
		tr.spans[root-1].End = time.Since(tr.epoch).Nanoseconds()
	}
	return firstErr
}

func (o *offlineMap) verify() (int, error) { return 0, nil }
func (o *offlineMap) close()               {}

// mallocs returns the process's cumulative heap allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func (o *offlineMap) layers(ts *traceSet, budget time.Duration, out map[string]float64) error {
	out["gensim.generate_s"] = o.genS
	for _, t := range o.tools {
		pre := "pipeline." + t.name + "."
		reads := 0.0
		for _, n := range ts.counts(pre+"map_batch", "reads") {
			reads += n
		}
		if reads == 0 {
			return fmt.Errorf("traced phase completed no round")
		}
		for _, s := range stageNames {
			out[pre+s+"_us"] = ts.totalMs(pre+s) / reads * 1e3
		}
		out[pre+"reads_per_s"] = reads / (ts.totalMs(pre+"map_batch") / 1e3)
		mapped := 0
		for _, r := range t.want {
			if r.Mapped {
				mapped++
			}
		}
		out[pre+"mapped_share"] = float64(mapped) / float64(len(t.want))

		// The paired row for the lane-group decision: the serial MapCtx
		// loop over the same reads, and allocations per batched read. Only
		// this goroutine runs, so the process-wide malloc count is its own.
		d, err := timeIt(func() error {
			for _, rd := range t.reads {
				if _, _, err := t.tool.MapCtx(context.Background(), rd, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		out[pre+"serial_reads_per_s"] = float64(len(t.reads)) / d.Seconds()
		m0, _ := mallocs()
		if _, err := t.tool.MapBatch(context.Background(), t.reads, t.results, t.stages, nil); err != nil {
			return err
		}
		m1, _ := mallocs()
		out[pre+"allocs_per_read"] = float64(m1-m0) / float64(len(t.reads))
	}
	return o.kernels(out)
}

// timeIt returns the median wall time of three runs of f.
func timeIt(f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// kernels times the eight paper kernels on corpora captured from this
// run's own reads by core.Suite's capture methods (§4.2: run each tool up
// to its kernel and keep the inputs). core.Suite.Kernels itself is not
// used: it generates a 12 Mbp layout graph, more than a whole run may
// spend; the layout kernel runs on the workload's graph instead.
func (o *offlineMap) kernels(out map[string]float64) error {
	nShort, nLong := 64, 4
	if len(o.short) < nShort {
		nShort = len(o.short)
	}
	if len(o.long) < nLong {
		nLong = len(o.long)
	}
	s := &core.Suite{Cfg: core.Config{K: 15, W: 10, Seed: 1}, Pop: o.pop,
		ShortReads: o.short[:nShort], LongReads: o.long[:nLong]}
	// kernel records the median time of f per input, in ns/unit.
	kernel := func(metric string, unit float64, inputs int, f func() error) error {
		d, err := timeIt(f)
		out[metric] = float64(d) / unit / float64(inputs)
		return err
	}

	gssw, err := s.GSSWInputs()
	if err != nil {
		return err
	}
	if err := kernel("align.gssw_us", 1e3, len(gssw), func() error {
		for _, in := range gssw {
			if _, err := align.GSSW(in.Sub, in.Query, bio.DefaultScoring, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	queries, err := s.GBWTInputs()
	if err != nil {
		return err
	}
	idx := o.tools[0].tool.(pipeline.HaplotypeIndexed).Haplotypes() // Giraffe's GBWT
	if err := kernel("gbwt.find_us", 1e3, len(queries), func() error {
		for _, q := range queries {
			idx.Find(q.Nodes, nil)
		}
		return nil
	}); err != nil {
		return err
	}

	gbv, err := s.GBVInputs()
	if err != nil {
		return err
	}
	if err := kernel("align.gbv_us", 1e3, len(gbv), func() error {
		for _, in := range gbv {
			if _, err := align.GBV(in.Sub, in.Query, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	for _, mode := range []struct {
		metric string
		chrom  bool
	}{{"align.gwfa_lr_us", false}, {"align.gwfa_cr_us", true}} {
		ins, err := s.GWFAInputs(mode.chrom)
		if err != nil {
			return err
		}
		if err := kernel(mode.metric, 1e3, len(ins), func() error {
			for _, in := range ins {
				q := in.Query
				if len(q) > 2000 {
					q = q[:2000]
				}
				if _, err := align.GWFA(in.G, in.Start, q, nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	// The transclosure input is the all-pairs matches of 4 haplotypes: the
	// matching is quadratic in them and only sets the kernel's input up.
	names, seqs := o.pop.AssemblyView()
	names, seqs = names[:4], seqs[:4]
	blocks, _, err := build.AllPairMatches(context.Background(), seqs, 15, 10, 0, nil)
	if err != nil {
		return err
	}
	tc, err := seqwish.NewBuilder(names, seqs)
	if err != nil {
		return err
	}
	for _, blk := range blocks {
		if err := tc.AddMatch(blk.SeqA, blk.PosA, blk.SeqB, blk.PosB, blk.Len); err != nil {
			return err
		}
	}
	if err := kernel("seqwish.transclose_ms", 1e6, 1, func() error {
		tc.Transclose(nil)
		return nil
	}); err != nil {
		return err
	}

	if err := kernel("layout.pgsgd_ms", 1e6, 1, func() error {
		l, err := layout.New(o.pop.Graph, 31)
		if err != nil {
			return err
		}
		lp := layout.DefaultParams(o.pop.Graph)
		lp.Iterations, lp.UpdatesPerIter = 4, 100_000
		l.Run(lp, nil)
		return nil
	}); err != nil {
		return err
	}

	pairs := s.TSUPairs(64, 1000)
	return kernel("wfagpu.tsu_ms", 1e6, 1, func() error {
		_, err := wfagpu.Align(simt.A6000(), pairs)
		return err
	})
}
