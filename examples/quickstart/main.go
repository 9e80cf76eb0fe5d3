// Quickstart: simulate a tiny pangenome, write it as GFA, map a few reads
// to it with the Vg Map model, and print the alignments.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/gfa"
	"pangenomicsbench/internal/pipeline"
)

func main() {
	// 1. Simulate a small population: a reference, variants, haplotypes,
	//    and the pangenome graph they imply.
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 20_000
	cfg.Haplotypes = 4
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := pop.Graph.ComputeStats()
	fmt.Printf("pangenome: %d nodes, %d edges, %d paths, avg node %.1f bp\n",
		stats.Nodes, stats.Edges, stats.Paths, stats.AvgNodeLen)

	// 2. Write the graph as GFA (the format every real tool exchanges).
	f, err := os.CreateTemp("", "quickstart-*.gfa")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	if err := gfa.Write(f, pop.Graph); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("graph written to %s\n", f.Name())

	// 3. Map short reads with the Vg Map model (seed → cluster → filter →
	//    GSSW alignment).
	tool, err := pipeline.NewVgMap(pop.Graph, 15, 10)
	if err != nil {
		log.Fatal(err)
	}
	reads, err := pop.SimulateReads(gensim.ShortReadConfig(5))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reads {
		res, st, _ := tool.MapCtx(context.Background(), r.Seq, nil)
		if !res.Mapped {
			fmt.Printf("%s: unmapped\n", r.Name)
			continue
		}
		fmt.Printf("%s: node %d, score %d (truth: hap %d pos %d) in %v\n",
			r.Name, res.Node, res.Score, r.Hap, r.Pos, st.Total().Round(1000))
	}
}
