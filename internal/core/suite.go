// Package core assembles PangenomicsBench itself: it generates the
// benchmark datasets (the synthetic stand-ins for Tables 2–3), captures
// each kernel's input corpus by running the tool pipelines up to the kernel
// (§4.2), and drives every experiment of the paper — each table and figure
// has a driver that returns a renderable text table (see experiments.go).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/seqmap"
	"pangenomicsbench/internal/seqwish"
	"pangenomicsbench/internal/wfagpu"
)

// Scale selects dataset sizes.
type Scale int

// Scales: Small keeps unit tests fast; Bench is the default for the
// experiment harness; Large approaches the paper's relative workloads.
const (
	Small Scale = iota
	Bench
	Large
)

// Config holds the dataset parameters derived from a Scale.
type Config struct {
	RefLen     int
	Haplotypes int
	ShortReads int
	LongReads  int
	LongLen    int
	K, W       int
	Seed       int64
}

// ConfigFor maps a scale to concrete sizes.
func ConfigFor(s Scale) Config {
	switch s {
	case Small:
		return Config{RefLen: 30_000, Haplotypes: 4, ShortReads: 40, LongReads: 4, LongLen: 2_000, K: 15, W: 10, Seed: 42}
	case Large:
		return Config{RefLen: 1_000_000, Haplotypes: 14, ShortReads: 2_000, LongReads: 60, LongLen: 15_000, K: 15, W: 10, Seed: 42}
	default:
		return Config{RefLen: 200_000, Haplotypes: 8, ShortReads: 400, LongReads: 16, LongLen: 8_000, K: 15, W: 10, Seed: 42}
	}
}

// Suite is one instantiated benchmark environment: the population, its
// pangenome graph, read sets, the tool models, and lazily captured kernel
// corpora.
type Suite struct {
	Cfg Config
	Pop *gensim.Population

	ShortReads []gensim.Read
	LongReads  []gensim.Read

	// Captured kernel corpora (nil until the capture method runs).
	gssw    []pipeline.GSSWInput
	gbwt    []pipeline.GBWTInput
	gbv     []pipeline.GBVInput
	gwfaLR  []pipeline.GWFAInput
	gwfaCR  []pipeline.GWFAInput
	sswRefs [][]byte
	sswQrys [][]byte
	tcB     *seqwish.Builder
	tsu     []wfagpu.Pair

	// layoutGraph is a dedicated large graph for PGSGD characterization:
	// like the paper's GBWT dataset (§4.2, "we use the full graph … because
	// cache behavior is especially sensitive to graph size"), PGSGD's
	// memory behaviour only appears when the layout footprint exceeds the
	// last-level cache, so this graph is sized independently of the scale.
	layoutGraph *graph.Graph

	// Memos, each usable at its zero value: the kernel registry, one timed
	// and one probed run per kernel corpus (keyed by Kernel.Name), and the
	// tool runs Table 1 and Fig. 2 share.
	kernels []Kernel
	walls   map[string]time.Duration
	reports map[string]perf.Report
	tools   []toolRun
}

// LayoutGraph lazily builds the PGSGD characterization graph.
func (s *Suite) LayoutGraph() (*graph.Graph, error) {
	if s.layoutGraph != nil {
		return s.layoutGraph, nil
	}
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 12_000_000
	cfg.Haplotypes = 6
	cfg.SNPRate = 0.004
	cfg.IndelRate = 0.0008
	cfg.Seed = s.Cfg.Seed + 77
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	s.layoutGraph = pop.Graph
	return s.layoutGraph, nil
}

// NewSuite generates the environment for a scale.
func NewSuite(scale Scale) (*Suite, error) {
	cfg := ConfigFor(scale)
	gcfg := gensim.DefaultConfig()
	gcfg.RefLen = cfg.RefLen
	gcfg.Haplotypes = cfg.Haplotypes
	gcfg.Seed = cfg.Seed
	pop, err := gensim.Simulate(gcfg)
	if err != nil {
		return nil, err
	}
	s := &Suite{Cfg: cfg, Pop: pop}
	rc := gensim.ShortReadConfig(cfg.ShortReads)
	if s.ShortReads, err = pop.SimulateReads(rc); err != nil {
		return nil, err
	}
	lc := gensim.LongReadConfig(cfg.LongReads)
	lc.Length = cfg.LongLen
	if s.LongReads, err = pop.SimulateReads(lc); err != nil {
		return nil, err
	}
	return s, nil
}

// GSSWInputs captures the Vg Map alignment corpus (run the tool up to the
// kernel and store its inputs, §4.2).
func (s *Suite) GSSWInputs() ([]pipeline.GSSWInput, error) {
	if s.gssw != nil {
		return s.gssw, nil
	}
	cap, err := s.captureGSSW(s.Pop.Graph)
	s.gssw = cap
	return cap, err
}

// captureGSSW maps the short reads with Vg Map on g and returns the inputs
// that reach its GSSW kernel.
func (s *Suite) captureGSSW(g *graph.Graph) ([]pipeline.GSSWInput, error) {
	tool, err := pipeline.NewVgMap(g, s.Cfg.K, s.Cfg.W)
	if err != nil {
		return nil, err
	}
	var cap []pipeline.GSSWInput
	tool.Capture = &cap
	for _, r := range s.ShortReads {
		tool.MapCtx(context.Background(), r.Seq, nil)
	}
	if len(cap) == 0 {
		return nil, fmt.Errorf("core: no GSSW inputs captured")
	}
	return cap, nil
}

// GBWTInputs captures the Giraffe GBWT query corpus, supplemented (as the
// paper does) with random haplotype subpaths of length 1–100.
func (s *Suite) GBWTInputs() ([]pipeline.GBWTInput, error) {
	if s.gbwt != nil {
		return s.gbwt, nil
	}
	tool, err := pipeline.NewVgGiraffe(s.Pop.Graph, s.Cfg.K, s.Cfg.W)
	if err != nil {
		return nil, err
	}
	var cap []pipeline.GBWTInput
	tool.Capture = &cap
	for _, r := range s.ShortReads {
		tool.MapCtx(context.Background(), r.Seq, nil)
	}
	// Random subpath queries (§4.2: "randomly sampling subsequences from
	// the haplotypes in the graph with lengths between 1 and 100").
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 1))
	paths := s.Pop.Graph.Paths()
	for i := 0; i < len(s.ShortReads)*4; i++ {
		p := paths[rng.Intn(len(paths))]
		if len(p.Nodes) == 0 {
			continue
		}
		n := min(1+rng.Intn(100), len(p.Nodes))
		start := rng.Intn(len(p.Nodes) - n + 1)
		cap = append(cap, pipeline.GBWTInput{Nodes: p.Nodes[start : start+n]})
	}
	s.gbwt = cap
	return cap, nil
}

// GBVInputs captures the GraphAligner cluster corpus from long reads.
func (s *Suite) GBVInputs() ([]pipeline.GBVInput, error) {
	if s.gbv != nil {
		return s.gbv, nil
	}
	tool, err := pipeline.NewGraphAligner(s.Pop.Graph, s.Cfg.K, s.Cfg.W)
	if err != nil {
		return nil, err
	}
	var cap []pipeline.GBVInput
	tool.Capture = &cap
	for _, r := range s.LongReads {
		tool.MapCtx(context.Background(), r.Seq, nil)
	}
	if len(cap) == 0 {
		return nil, fmt.Errorf("core: no GBV inputs captured")
	}
	s.gbv = cap
	return cap, nil
}

// GWFAInputs captures the Minigraph bridging corpora: long-read mode and
// chromosome (assembly) mode.
func (s *Suite) GWFAInputs(chromosome bool) ([]pipeline.GWFAInput, error) {
	cached := &s.gwfaLR
	if chromosome {
		cached = &s.gwfaCR
	}
	if *cached != nil {
		return *cached, nil
	}
	tool, err := pipeline.NewMinigraph(s.Pop.Graph, s.Cfg.K, s.Cfg.W, chromosome)
	if err != nil {
		return nil, err
	}
	var cap []pipeline.GWFAInput
	tool.Capture = &cap
	if chromosome {
		// Assembly mapping: the whole first haplotype as one query.
		asm := s.Pop.Haplotypes[0].Seq
		asm = asm[:min(len(asm), 120_000)]
		tool.MapCtx(context.Background(), asm, nil)
	} else {
		for _, r := range s.LongReads {
			tool.MapCtx(context.Background(), r.Seq, nil)
		}
	}
	if len(cap) == 0 {
		return nil, fmt.Errorf("core: no GWFA inputs captured (chromosome=%v)", chromosome)
	}
	*cached = cap
	return cap, nil
}

// TCBuilder captures the seqwish transclosure input: the assemblies and
// their all-to-all matches (the PGGB alignment stage output).
func (s *Suite) TCBuilder() (*seqwish.Builder, error) {
	if s.tcB != nil {
		return s.tcB, nil
	}
	names, seqs := s.Pop.AssemblyView()
	b, err := seqwish.NewBuilder(names, seqs)
	if err != nil {
		return nil, err
	}
	blocks, _, err := build.AllPairMatches(context.Background(), seqs, s.Cfg.K, s.Cfg.W, 0, nil)
	if err != nil {
		return nil, err
	}
	for _, blk := range blocks {
		if err := b.AddMatch(blk.SeqA, blk.PosA, blk.SeqB, blk.PosB, blk.Len); err != nil {
			return nil, err
		}
	}
	s.tcB = b
	return b, nil
}

// SSWInputs captures the Seq2Seq baseline alignment corpus (case study
// §6.1): the same short reads mapped to the linear reference.
func (s *Suite) SSWInputs() ([][]byte, [][]byte, error) {
	if s.sswRefs != nil {
		return s.sswRefs, s.sswQrys, nil
	}
	m, err := seqmap.NewMapper(s.Pop.Ref, s.Cfg.K, s.Cfg.W)
	if err != nil {
		return nil, nil, err
	}
	var cap seqmap.SSWCapture
	for _, r := range s.ShortReads {
		m.Map(r.Seq, nil, &cap)
	}
	s.sswRefs, s.sswQrys = cap.Refs, cap.Queries
	return cap.Refs, cap.Queries, nil
}

// TSUPairs generates the Tsunami corpus: sequence pairs of the given length
// at 1% divergence (the TSU script's configuration, §4.2).
func (s *Suite) TSUPairs(count, length int) []wfagpu.Pair {
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 9))
	pairs := make([]wfagpu.Pair, count)
	for i := range pairs {
		a := gensim.RandomGenome(rng, length)
		b := mutateSeq(rng, a, 0.01)
		pairs[i] = wfagpu.Pair{A: a, B: b}
	}
	return pairs
}

// SplitGraph returns the Fig. 11 Split-M-Graph: every node longer than
// maxLen split into a chain.
func (s *Suite) SplitGraph(maxLen int) *graph.Graph {
	return graph.Split(s.Pop.Graph, maxLen)
}

func mutateSeq(rng *rand.Rand, seq []byte, rate float64) []byte {
	var out []byte
	for _, b := range seq {
		r := rng.Float64()
		switch {
		case r < rate/3:
			out = append(out, "ACGT"[rng.Intn(4)])
		case r < 2*rate/3:
		case r < rate:
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
