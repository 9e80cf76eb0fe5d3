package core

import (
	"errors"
	"fmt"
	"math/rand"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/fmindex"
	"pangenomicsbench/internal/perf"
)

// OptGSSW is the optimization experiment case study §6.1 proposes: "within
// a node, the rows exhibit linear dependencies, meaning these rows do not
// need to be stored. This optimization could improve performance by
// avoiding the costly writebacks from SIMD buffers to DP matrix." It runs
// the captured GSSW corpus through the full kernel and through GSSWLean
// (score-only, boundary rows kept) and compares memory behaviour.
func (s *Suite) OptGSSW() (Table, error) {
	inputs, err := s.GSSWInputs()
	if err != nil {
		return Table{}, err
	}
	full, err := s.measureNamed("GSSW")
	if err != nil {
		return Table{}, err
	}
	lean, err := s.measure(gsswKernel("GSSW-lean", inputs, align.GSSWLean))
	if err != nil {
		return Table{}, err
	}
	// The lean variant must give the full kernel's score on every input.
	for i, in := range inputs {
		f, errF := align.GSSW(in.Sub, in.Query, bio.DefaultScoring, nil)
		l, errL := align.GSSWLean(in.Sub, in.Query, bio.DefaultScoring, nil)
		if err := errors.Join(errF, errL); err != nil {
			return Table{}, err
		}
		if f.Score != l.Score {
			return Table{}, fmt.Errorf("core: lean GSSW diverged on input %d (%d vs %d)", i, f.Score, l.Score)
		}
	}

	tbl := Table{
		ID:     "opt-gssw",
		Title:  "§6.1 Optimization: dropping intra-node DP row write-back",
		Header: []string{"Variant", "Stores/instr", "MemBound", "IPC", "Model cycles", "Wall time"},
		Notes: []string{
			"the lean variant keeps only node-boundary rows (score-only, no traceback);",
			"scores verified identical across the corpus",
		},
	}
	for _, v := range []struct {
		name string
		m    measurement
	}{{"GSSW (full matrices)", full}, {"GSSW-lean (§6.1 optimization)", lean}} {
		td := v.m.report.TopDown
		tbl.Rows = append(tbl.Rows, []Cell{
			label(v.name), model(storesPerInstr(v.m.report), Fixed2), model(td.MemoryBound, Percent), model(td.IPC, Fixed2),
			model(td.Cycles, Count), wall(v.m.wall.Seconds(), Micros),
		})
	}
	return tbl, nil
}

// GBWTvsFMIndex contrasts the haplotype-aware GBWT with the classic
// base-pair FM-index — §5.2's explanation of why GBWT avoids the memory
// bottleneck previous work measured for BWT-based seeding: base-pair
// backward search hops unpredictably across the whole occurrence table,
// while GBWT queries walk a handful of adjacent node records.
func (s *Suite) GBWTvsFMIndex() (Table, error) {
	// FM-index over the linear reference, queried with read substrings.
	fm, err := fmindex.New(s.Pop.Ref)
	if err != nil {
		return Table{}, err
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 13))
	var queries [][]byte
	for _, r := range s.ShortReads {
		for k := 0; k < 4; k++ {
			n := min(12+rng.Intn(20), len(r.Seq))
			start := rng.Intn(len(r.Seq) - n + 1)
			queries = append(queries, r.Seq[start:start+n])
		}
	}
	fmRun, err := s.measure(Kernel{Name: "FM-index", Inputs: len(queries), Run: func(p *perf.Probe) error {
		for _, q := range queries {
			fm.Count(q, p)
		}
		return nil
	}})
	if err != nil {
		return Table{}, err
	}
	// GBWT over the graph's haplotypes, queried with the captured corpus.
	gbwtIn, err := s.GBWTInputs()
	if err != nil {
		return Table{}, err
	}
	gbRun, err := s.measureNamed("GBWT")
	if err != nil {
		return Table{}, err
	}

	tbl := Table{
		ID:     "gbwt-vs-fmindex",
		Title:  "Index contrast: classic FM-index vs haplotype-aware GBWT",
		Header: []string{"Index", "Queries", "MemBound", "L1 MPKI", "L3 MPKI", "IPC", "Wall time"},
		Notes: []string{
			"§5.2: the FM-index's 4-letter alphabet makes occ-table hops unpredictable and",
			"bandwidth-hungry; GBWT's node-ID alphabet bounds each hop to a few nearby records",
		},
	}
	add := func(name string, n int, m measurement) {
		rep := m.report
		tbl.Rows = append(tbl.Rows, []Cell{
			label(name), model(float64(n), Count), model(rep.TopDown.MemoryBound, Percent),
			model(rep.L1MPKI, Fixed2), model(rep.L3MPKI, Fixed2), model(rep.TopDown.IPC, Fixed2),
			wall(m.wall.Seconds(), Micros),
		})
	}
	add("FM-index (base pairs)", len(queries), fmRun)
	add("GBWT (haplotype paths)", len(gbwtIn), gbRun)
	return tbl, nil
}
