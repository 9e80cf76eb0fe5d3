package pipeline

import (
	"fmt"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/gbwt"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
)

// Index accessors and from-index constructors: the persistence layer
// (internal/store via internal/mapserve) saves a tool's precomputed indexes
// and rehydrates the tool on warm restart without re-running index
// construction. Every FromIndex constructor produces a tool field-identical
// to its index-building sibling, so a loaded snapshot maps byte-identically
// to the one that was saved.

// Indexed is a mapping tool that exposes its minimizer graph index. All
// four tools implement it.
type Indexed interface {
	GraphIndex() *minimizer.GraphIndex
}

// HaplotypeIndexed is a mapping tool that also carries a GBWT haplotype
// index (Giraffe).
type HaplotypeIndexed interface {
	Haplotypes() *gbwt.Index
}

// GraphIndex returns the tool's minimizer index.
func (t *VgGiraffe) GraphIndex() *minimizer.GraphIndex { return t.idx }

// Haplotypes returns the tool's GBWT haplotype index.
func (t *VgGiraffe) Haplotypes() *gbwt.Index { return t.hap }

// GraphIndex returns the tool's minimizer index.
func (t *VgMap) GraphIndex() *minimizer.GraphIndex { return t.idx }

// GraphIndex returns the tool's minimizer index.
func (t *GraphAligner) GraphIndex() *minimizer.GraphIndex { return t.idx }

// GraphIndex returns the tool's minimizer index.
func (t *Minigraph) GraphIndex() *minimizer.GraphIndex { return t.idx }

// checkIndexed validates a prebuilt index against its graph.
func checkIndexed(who string, g *graph.Graph, idx *minimizer.GraphIndex) error {
	if g == nil {
		return fmt.Errorf("pipeline: %s: nil graph", who)
	}
	if idx == nil {
		return fmt.Errorf("pipeline: %s: nil minimizer index", who)
	}
	return nil
}

// NewVgGiraffeFromIndexes builds Giraffe around a prebuilt minimizer index
// and GBWT (e.g. loaded from a snapshot store); only the cheap linear-scan
// distance index is derived here.
func NewVgGiraffeFromIndexes(g *graph.Graph, idx *minimizer.GraphIndex, hap *gbwt.Index) (*VgGiraffe, error) {
	if err := checkIndexed("giraffe", g, idx); err != nil {
		return nil, err
	}
	if hap == nil {
		return nil, fmt.Errorf("pipeline: giraffe: nil GBWT index")
	}
	nodePos := make(map[graph.NodeID]int, g.NumNodes())
	for _, p := range g.Paths() {
		off := 0
		for _, id := range p.Nodes {
			if _, seen := nodePos[id]; !seen {
				nodePos[id] = off
			}
			off += len(g.Seq(id))
		}
	}
	t := &VgGiraffe{g: g, idx: idx, hap: hap, nodePos: nodePos}
	t.one = t.mapOne
	return t, nil
}

// NewVgMapFromIndex builds Vg Map around a prebuilt minimizer index.
func NewVgMapFromIndex(g *graph.Graph, idx *minimizer.GraphIndex) (*VgMap, error) {
	if err := checkIndexed("vg map", g, idx); err != nil {
		return nil, err
	}
	t := &VgMap{g: g, idx: idx, sc: bio.DefaultScoring, Radius: 0}
	t.one = t.mapOne
	return t, nil
}

// NewGraphAlignerFromIndex builds GraphAligner around a prebuilt minimizer
// index.
func NewGraphAlignerFromIndex(g *graph.Graph, idx *minimizer.GraphIndex) (*GraphAligner, error) {
	if err := checkIndexed("graphaligner", g, idx); err != nil {
		return nil, err
	}
	t := &GraphAligner{g: g, idx: idx, Radius: 192}
	t.one = t.mapOne
	return t, nil
}

// NewMinigraphFromIndex builds Minigraph around a prebuilt minimizer index.
func NewMinigraphFromIndex(g *graph.Graph, idx *minimizer.GraphIndex, chromosomeMode bool) (*Minigraph, error) {
	if err := checkIndexed("minigraph", g, idx); err != nil {
		return nil, err
	}
	t := &Minigraph{g: g, idx: idx, ChromosomeMode: chromosomeMode}
	t.one = t.mapOne
	return t, nil
}
