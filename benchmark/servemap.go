package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/pipeline"
)

// stageNames are the four mapping stages every tool reports, in order.
var stageNames = []string{"seed", "chain", "filter", "align"}

// traceStages lays a tool's stage times out back to back from start as
// children of parent, named pipeline.<tool>.<stage>; a stage that took no
// time leaves no span.
func traceStages(t *opTrace, parent uint32, tool string, start time.Time, st pipeline.StageTimes) {
	for i, d := range []time.Duration{st.Seed, st.Chain, st.Filter, st.Align} {
		if d > 0 {
			t.add(parent, "pipeline."+tool+"."+stageNames[i], start, d)
			start = start.Add(d)
		}
	}
}

// layerTool is a tool's name inside per-layer metric names.
func layerTool(kind mapserve.ToolKind) string {
	return strings.TrimSuffix(string(kind), "-lr")
}

// servedGraph says what a serving workload queries: a refLen × haps
// population, and either its PGGB graph as built (the build-then-serve
// handoff through SnapshotFromBuild) or the simulator's truth graph, whose
// nodes are at most 32 bp as in real Minigraph-Cactus graphs (paper §6.2).
type servedGraph struct {
	refLen, haps int
	built        bool
}

// snapshot generates the population and wraps its graph as a snapshot of
// kind; the duration is the input-generation share of that.
func (sg servedGraph) snapshot(seed int64, kind mapserve.ToolKind) (*gensim.Population, *mapserve.Snapshot, time.Duration, error) {
	t0 := time.Now()
	cfg := gensim.DefaultConfig()
	cfg.RefLen, cfg.Haplotypes, cfg.Seed = sg.refLen, sg.haps, seed
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	gen := time.Since(t0)
	tc := mapserve.DefaultToolConfig(kind)
	if !sg.built {
		snap, err := mapserve.NewSnapshot("bench", pop.Graph, tc)
		return pop, snap, gen, err
	}
	names, seqs := pop.AssemblyView()
	res, err := build.PGGB(context.Background(), names, seqs, build.DefaultPGGBConfig(), nil)
	if err != nil {
		return nil, nil, 0, err
	}
	snap, err := mapserve.SnapshotFromBuild("bench", res, tc)
	return pop, snap, gen, err
}

// serveMap is the serve_short / serve_long instance: a mapserve.Service
// with the default Config over one published snapshot, queried by two
// closed-loop clients replaying a ReadQueryTrace.
//
// serve_long queries the truth graph because GraphAligner extracts whole
// nodes around each seed: on a PGGB graph as built (39–77 nodes of ~400 bp
// for a 5 × 20 kb cohort) its per-read cost followed node length and moved
// from 3.6 to 10.8 ms with the seed alone.
type serveMap struct {
	kind    mapserve.ToolKind
	snap    *mapserve.Snapshot
	svc     *mapserve.Service
	queries [][][]byte          // per client, in issue order
	want    [][]pipeline.Result // direct Snapshot.Map of the same read
	genS    float64
	firstMs float64 // first query after mapserve.New
}

func setupServeMap(kind mapserve.ToolKind, sg servedGraph, readLen, queries int) func(params) (instance, error) {
	return func(p params) (instance, error) {
		sg, queries := sg, queries
		if p.smoke {
			sg.refLen, queries = 6_000, queries/8
		}
		pop, snap, gen, err := sg.snapshot(p.seed, kind)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		trace, err := pop.ReadQueryTrace(gensim.ReadTraceConfig{
			Queries: queries, Clients: 2, ReadLen: readLen,
			SubRate: 0.002, IndelRate: 0.0001, RepeatRate: 0.2, Seed: p.seed,
		})
		if err != nil {
			return nil, err
		}
		gen += time.Since(t0)
		reg := &mapserve.Registry{}
		if _, err := reg.Publish(snap); err != nil {
			return nil, err
		}
		s := &serveMap{kind: kind, snap: snap, genS: gen.Seconds(),
			queries: make([][][]byte, 2), want: make([][]pipeline.Result, 2)}
		// Reference results, computed differentially so a legitimate output
		// change needs no edit here. A repeat query shares its original's
		// bytes, so it takes the original's reference: byte-identical
		// repeats must then map identically to pass.
		ref := make([]pipeline.Result, len(trace))
		for i, q := range trace {
			if q.Repeat >= 0 {
				ref[i] = ref[q.Repeat]
			} else if ref[i], _, err = snap.Map(context.Background(), q.Read.Seq); err != nil {
				return nil, err
			}
			s.queries[q.Client] = append(s.queries[q.Client], q.Read.Seq)
			s.want[q.Client] = append(s.want[q.Client], ref[i])
		}
		s.svc = mapserve.New(reg, mapserve.Config{})
		t0 = time.Now()
		for i := 0; i < 16; i++ { // warm-up: scratch pools, first batches
			if err := s.op(i%2, i/2, nil); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up query: %w", err)
			}
			if i == 0 {
				s.firstMs = float64(time.Since(t0)) / 1e6
			}
		}
		return s, nil
	}
}

func (s *serveMap) op(c, i int, t *opTrace) error {
	i %= len(s.queries[c])
	t0 := time.Now()
	resp, err := s.svc.Map(context.Background(), s.queries[c][i])
	if err != nil {
		if t != nil {
			id := t.add(0, "mapserve.map", t0, time.Since(t0))
			if errors.Is(err, mapserve.ErrOverloaded) || errors.Is(err, context.DeadlineExceeded) {
				t.count(id, "shed", 1)
			}
		}
		return err
	}
	traceQuery(t, 0, s.kind, t0, time.Since(t0), resp)
	if resp.Result != s.want[c][i] {
		return fmt.Errorf("client %d query %d: served %+v, direct Snapshot.Map gave %+v", c, i, resp.Result, s.want[c][i])
	}
	return nil
}

// traceQuery records one served query: the caller-side span around
// Service.Map, with children synthesised from the durations the response
// carries — queue wait, then the kernel's map time split into its stages.
// What the children leave uncovered is mapserve's own overhead, which on
// the batched path includes waiting for the other lanes of the group.
func traceQuery(t *opTrace, parent uint32, kind mapserve.ToolKind, t0 time.Time, lat time.Duration, resp *mapserve.Response) {
	if t == nil {
		return
	}
	root := t.add(parent, "mapserve.map", t0, lat)
	t.count(root, "batch_size", int64(resp.BatchSize))
	t.add(root, "mapserve.queue_wait", t0, resp.QueueWait)
	mapStart := t0.Add(resp.QueueWait)
	m := t.add(root, "pipeline."+layerTool(kind)+".map", mapStart, resp.MapTime)
	traceStages(t, m, layerTool(kind), mapStart, resp.Stages)
}

// mapserveLayers derives the mapserve and per-stage tool metrics from
// traced queries. Batches are counted from the batch size each response
// reports (a batch of n contributes n responses of weight 1/n), so the
// service runs with the same Config as in the untraced run.
func mapserveLayers(ts *traceSet, kind mapserve.ToolKind, out map[string]float64) {
	tool := "pipeline." + layerTool(kind)
	wait := ts.durationsMs("mapserve.queue_wait")
	mapMs := ts.durationsMs(tool + ".map")
	out["mapserve.queue_wait_p50_ms"] = median(wait)
	out["mapserve.queue_wait_tail_ms"] = quantile(sorted(wait), 0.99)
	out["mapserve.map_p50_ms"] = median(mapMs)
	// What wait and map leave uncovered of a query's latency.
	out["mapserve.overhead_p50_ms"] = median(ts.selfMs("mapserve.map"))
	batches := 0.0
	for _, n := range ts.counts("mapserve.map", "batch_size") {
		batches += 1 / n
	}
	out["mapserve.batches"] = batches
	if batches > 0 {
		out["mapserve.batch_size_mean"] = float64(len(mapMs)) / batches
	}
	out["mapserve.shed"] = float64(len(ts.counts("mapserve.map", "shed")))
	stages := 0.0
	for _, n := range stageNames {
		total := ts.totalMs(tool + "." + n)
		stages += total
		// Mean per mapped read, in µs; a stage a read skipped counts as 0.
		out[tool+"."+n+"_us"] = total / float64(len(mapMs)) * 1e3
	}
	if total := ts.totalMs(tool + ".map"); total > 0 {
		out["mapserve.stage_coverage_share"] = stages / total
	}
}

func (s *serveMap) layers(ts *traceSet, budget time.Duration, out map[string]float64) error {
	mapserveLayers(ts, s.kind, out)
	out["mapserve.first_query_ms"] = s.firstMs
	out["gensim.generate_s"] = s.genS
	mapped := 0
	for c := range s.want {
		for _, r := range s.want[c] {
			if r.Mapped {
				mapped++
			}
		}
	}
	out["pipeline."+layerTool(s.kind)+".mapped_share"] = float64(mapped) / float64(len(s.want[0])+len(s.want[1]))
	if s.kind != mapserve.ToolGiraffe {
		return nil
	}
	// The cost of the system's own tracer: CPU per query on a second
	// service over the same snapshot with Config.Tracer set, against the
	// nil-tracer service, on the kernel-light workload where it is largest.
	w := workload{name: "tracer-probe", clients: 2}
	next := make([]int, 2)
	base := runPhase(w, s, budget/2, false, next)
	reg := &mapserve.Registry{}
	clone, err := mapserve.NewSnapshot("bench-traced", s.snap.Graph(), s.snap.Config())
	if err != nil {
		return err
	}
	if _, err := reg.Publish(clone); err != nil {
		return err
	}
	traced := *s
	traced.svc = mapserve.New(reg, mapserve.Config{Tracer: obs.NewTracer(obs.TracerConfig{})})
	defer traced.svc.Close()
	with := runPhase(w, &traced, budget/2, false, next)
	if base.failed+with.failed > 0 {
		return fmt.Errorf("tracer probe: %d ops failed", base.failed+with.failed)
	}
	perOp := func(p phase) float64 { return float64(p.cpu) / float64(len(p.latMs)) }
	out["obs.tracer_cpu_overhead_share"] = perOp(with)/perOp(base) - 1
	return nil
}

func (s *serveMap) verify() (int, error) { return 0, nil }

func (s *serveMap) close() { s.svc.Close() }
