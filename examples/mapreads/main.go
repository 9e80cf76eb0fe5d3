// Mapreads: run all four Seq2Graph tool models over a simulated cohort,
// report mapping rate, per-stage time breakdown (the Fig. 2 view), and
// compare against the Seq2Seq baseline.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/seqmap"
)

func main() {
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 60_000
	cfg.Haplotypes = 6
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	short, err := pop.SimulateReads(gensim.ShortReadConfig(100))
	if err != nil {
		log.Fatal(err)
	}
	longCfg := gensim.LongReadConfig(10)
	longCfg.Length = 4000
	long, err := pop.SimulateReads(longCfg)
	if err != nil {
		log.Fatal(err)
	}

	type job struct {
		tool  pipeline.ContextTool
		reads []gensim.Read
	}
	var jobs []job
	if t, err := pipeline.NewVgMap(pop.Graph, 15, 10); err == nil {
		jobs = append(jobs, job{t, short})
	}
	if t, err := pipeline.NewVgGiraffe(pop.Graph, 15, 10); err == nil {
		jobs = append(jobs, job{t, short})
	}
	if t, err := pipeline.NewGraphAligner(pop.Graph, 15, 10); err == nil {
		jobs = append(jobs, job{t, long})
	}
	if t, err := pipeline.NewMinigraph(pop.Graph, 15, 10, false); err == nil {
		jobs = append(jobs, job{t, long})
	}

	fmt.Printf("%-14s %7s %7s  %-40s\n", "tool", "mapped", "total", "stage breakdown (seed/chain/filter/align)")
	for _, j := range jobs {
		var agg seqmap.StageTimes
		mapped := 0
		t0 := time.Now()
		for _, r := range j.reads {
			res, st, _ := j.tool.MapCtx(context.Background(), r.Seq, nil)
			agg.Add(st)
			if res.Mapped {
				mapped++
			}
		}
		total := time.Since(t0)
		ts := agg.Total().Seconds()
		fmt.Printf("%-14s %3d/%3d %7s  %4.0f%% / %4.0f%% / %4.0f%% / %4.0f%%\n",
			j.tool.Name(), mapped, len(j.reads), total.Round(time.Millisecond),
			100*agg.Seed.Seconds()/ts, 100*agg.Chain.Seconds()/ts,
			100*agg.Filter.Seconds()/ts, 100*agg.Align.Seconds()/ts)
	}

	// Seq2Seq baseline for contrast.
	m, err := seqmap.NewMapper(pop.Ref, 15, 10)
	if err != nil {
		log.Fatal(err)
	}
	mapped := 0
	t0 := time.Now()
	for _, r := range short {
		res, _ := m.Map(r.Seq, nil, nil)
		if res.Mapped {
			mapped++
		}
	}
	fmt.Printf("%-14s %3d/%3d %7s  (linear reference)\n",
		"BWA-MEM2-like", mapped, len(short), time.Since(t0).Round(time.Millisecond))
}
