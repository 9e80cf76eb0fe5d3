// Package layout implements Path-Guided Stochastic Gradient Descent
// (PGSGD, the paper's [26, 27]), the graph-visualization kernel of ODGI:
// a 2D layout of the pangenome graph is iteratively refined so Euclidean
// distances between node endpoints match nucleotide distances along
// haplotype paths. The CPU runner is single-threaded: odgi-layout's
// Hogwild! thread scaling (Fig. 5) is modelled by the sched simulation fed
// with its single-thread costs, and the parallel GPU variant (Table 7) runs
// on the simt simulator with per-thread RNG states in a coalesced layout.
package layout

import (
	"fmt"
	"math"

	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// Layout holds 2D positions of node endpoints: index 2*(node-1) is the node
// start, 2*(node-1)+1 the node end.
type Layout struct {
	g *graph.Graph
	X []float64
	Y []float64

	idx *PathIndex
	// Synthetic addresses of the layout's real data structures for the
	// cache model: the coordinate arrays and the path index. Together they
	// form the footprint that makes PGSGD memory-bound on large graphs
	// (§5.2: 1.7 GB for chromosome 20).
	posBase uint64
	idxBase uint64
}

// PathIndex is the precomputed nucleotide offset of every path step — the
// sequential preprocessing step that limits odgi-layout's thread scaling
// (§5.1).
type PathIndex struct {
	paths   []graph.Path
	starts  [][]int // per path: nucleotide offset of each step
	lens    []int   // per path: total nucleotide length
	weights []int   // cumulative step counts for weighted path sampling
	total   int
}

// NewPathIndex builds the per-step offsets for all paths of g.
func NewPathIndex(g *graph.Graph) (*PathIndex, error) {
	paths := g.Paths()
	if len(paths) == 0 {
		return nil, fmt.Errorf("layout: graph has no paths")
	}
	idx := &PathIndex{paths: paths}
	for _, p := range paths {
		offs := make([]int, len(p.Nodes))
		off := 0
		for i, id := range p.Nodes {
			offs[i] = off
			off += len(g.Seq(id))
		}
		idx.starts = append(idx.starts, offs)
		idx.lens = append(idx.lens, off)
		idx.total += len(p.Nodes)
		idx.weights = append(idx.weights, idx.total)
	}
	return idx, nil
}

// New seeds a layout along the paths (nodes placed at their first path
// offset, like odgi's default initialization) and returns it.
func New(g *graph.Graph, seed uint64) (*Layout, error) {
	idx, err := NewPathIndex(g)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	l := &Layout{g: g, X: make([]float64, 2*n), Y: make([]float64, 2*n), idx: idx}
	as := perf.NewAddrSpace()
	l.posBase = as.Alloc(2 * n * 16)
	l.idxBase = as.Alloc(idx.total * 8)
	rng := xorshift(seed | 1)
	placed := make([]bool, n+1)
	for pi, p := range idx.paths {
		for si, id := range p.Nodes {
			if placed[id] {
				continue
			}
			placed[id] = true
			start := float64(idx.starts[pi][si])
			l.X[2*(int(id)-1)] = start
			l.X[2*(int(id)-1)+1] = start + float64(len(g.Seq(id)))
			// Small deterministic jitter on Y to break symmetry.
			rng = xorshiftNext(rng)
			l.Y[2*(int(id)-1)] = float64(rng%1000)/1000 - 0.5
			rng = xorshiftNext(rng)
			l.Y[2*(int(id)-1)+1] = float64(rng%1000)/1000 - 0.5
		}
	}
	for id := 1; id <= n; id++ {
		if !placed[id] {
			// Nodes not on any path: place at origin area.
			l.X[2*(id-1)] = 0
			l.X[2*(id-1)+1] = float64(len(g.Seq(graph.NodeID(id))))
		}
	}
	return l, nil
}

// xorshift is a tiny deterministic RNG (xorshift64*), used instead of
// math/rand so CPU and GPU variants share the exact generator.
func xorshiftNext(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x * 0x2545F4914F6CDD1D
}

func xorshift(seed uint64) uint64 { return xorshiftNext(seed) }

// The fixed parts of the SGD schedule (odgi-layout defaults): the learning
// rate decays exponentially from etaMax to etaMin, and runSeed seeds each
// iteration's update stream.
const (
	etaMax  = 1000
	etaMin  = 0.01
	runSeed = 1234
)

// Params controls the SGD schedule.
type Params struct {
	Iterations     int // outer iterations (the paper's kernel runs 30)
	UpdatesPerIter int // update steps per iteration (scaled to graph size)
}

// DefaultParams mirrors odgi-layout defaults at benchmark scale.
func DefaultParams(g *graph.Graph) Params {
	updates := g.NumNodes() * 20
	if updates < 1000 {
		updates = 1000
	}
	return Params{Iterations: 30, UpdatesPerIter: updates}
}

// sampleStepPair picks a path (weighted by steps), then two steps on it:
// one uniform, the second at a Zipf-distributed step distance.
func (idx *PathIndex) sampleStepPair(rng *uint64) (pi, si, sj int) {
	*rng = xorshiftNext(*rng)
	target := int(*rng % uint64(idx.total))
	pi = 0
	for idx.weights[pi] <= target {
		pi++
	}
	steps := len(idx.paths[pi].Nodes)
	*rng = xorshiftNext(*rng)
	si = int(*rng % uint64(steps))
	if steps == 1 {
		return pi, si, si
	}
	// Zipf-ish jump length: 1/u distribution truncated to the path.
	*rng = xorshiftNext(*rng)
	u := float64((*rng)%1_000_000)/1_000_000 + 1e-9
	jump := int(math.Pow(float64(steps), u)) % steps
	if jump == 0 {
		jump = 1
	}
	*rng = xorshiftNext(*rng)
	if *rng&1 == 0 {
		sj = si + jump
	} else {
		sj = si - jump
	}
	if sj < 0 {
		sj = -sj
	}
	if sj >= steps {
		sj = 2*(steps-1) - sj
		if sj < 0 {
			sj = 0
		}
	}
	if sj == si {
		sj = (si + 1) % steps
	}
	return pi, si, sj
}

// endpointOf returns the layout point index of a path step (start endpoint
// of its node) and its nucleotide offset.
func (idx *PathIndex) endpointOf(pi, si int) (point int, off int) {
	id := idx.paths[pi].Nodes[si]
	return 2 * (int(id) - 1), idx.starts[pi][si]
}

// Run executes PGSGD on one thread: UpdatesPerIter updates per iteration,
// each iteration reseeded and run at its decayed learning rate, with every
// update reported to probe. Thread scaling, including the barrier between
// iterations that §5.1 identifies as a scaling limit, is modelled by the
// sched simulation. It returns the number of updates applied.
func (l *Layout) Run(p Params, probe *perf.Probe) int {
	if p.Iterations < 1 || p.UpdatesPerIter < 1 {
		return 0
	}
	lambda := math.Log(etaMax/etaMin) / float64(p.Iterations)
	for iter := 0; iter < p.Iterations; iter++ {
		eta := etaMax * math.Exp(-lambda*float64(iter))
		rng := xorshift(runSeed + uint64(iter*131071+1))
		for u := 0; u < p.UpdatesPerIter; u++ {
			l.update(&rng, eta, probe, l.posBase)
		}
	}
	return p.Iterations * p.UpdatesPerIter
}

// update applies one SGD step.
func (l *Layout) update(rng *uint64, eta float64, probe *perf.Probe, posBase uint64) {
	pi, si, sj := l.idx.sampleStepPair(rng)
	a, offA := l.idx.endpointOf(pi, si)
	b, offB := l.idx.endpointOf(pi, sj)
	probe.Op(perf.ScalarInt, 12) // sampling arithmetic
	// Path-index lookups: two random steps of a random path.
	stepBase := l.idx.weights[pi] - len(l.idx.paths[pi].Nodes)
	probe.Load(uintptr(l.idxBase)+uintptr((stepBase+si)*8), 8)
	probe.Load(uintptr(l.idxBase)+uintptr((stepBase+sj)*8), 8)
	d := float64(offA - offB)
	if d < 0 {
		d = -d
	}
	if d == 0 {
		d = 1
	}
	// Pseudo-random accesses to the full layout (the memory bottleneck of
	// §5.2: the graph "does not fit in any level of the cache").
	probe.Load(uintptr(posBase)+uintptr(a*16), 16)
	probe.Load(uintptr(posBase)+uintptr(b*16), 16)
	dx := l.X[a] - l.X[b]
	dy := l.Y[a] - l.Y[b]
	dist := math.Sqrt(dx*dx + dy*dy) // Pythagorean theorem (§5.2)
	probe.Op(perf.ScalarFP, 8)
	probe.Dep(24) // sqrt + divide latency chain
	if dist < 1e-9 {
		dist = 1e-9
		dx = 1
	}
	w := 1 / (d * d)
	mu := eta * w
	if mu > 1 {
		mu = 1
	}
	r := (dist - d) / 2 * mu / dist
	probe.Op(perf.ScalarFP, 6)
	rx, ry := dx*r, dy*r
	l.X[a] -= rx
	l.Y[a] -= ry
	l.X[b] += rx
	l.Y[b] += ry
	probe.Store(uintptr(posBase)+uintptr(a*16), 16)
	probe.Store(uintptr(posBase)+uintptr(b*16), 16)
}

// Stress evaluates layout quality: sum over sampled path step pairs of
// weighted squared distance error. Lower is better.
func (l *Layout) Stress(samples int, seed uint64) float64 {
	rng := xorshift(seed | 1)
	var stress float64
	for s := 0; s < samples; s++ {
		pi, si, sj := l.idx.sampleStepPair(&rng)
		a, offA := l.idx.endpointOf(pi, si)
		b, offB := l.idx.endpointOf(pi, sj)
		d := math.Abs(float64(offA - offB))
		if d == 0 {
			d = 1
		}
		dx := l.X[a] - l.X[b]
		dy := l.Y[a] - l.Y[b]
		dist := math.Sqrt(dx*dx + dy*dy)
		e := dist - d
		stress += e * e / (d * d)
	}
	return stress / float64(samples)
}
