package layout

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/simt"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 5000
	cfg.Haplotypes = 3
	p, err := gensim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.Graph
}

func TestNewRequiresPaths(t *testing.T) {
	g := graph.New()
	g.AddNode([]byte("ACGT"))
	if _, err := New(g, 1); err == nil {
		t.Fatal("graph without paths must be rejected")
	}
}

func TestPathIndexOffsets(t *testing.T) {
	g := graph.New()
	g.AddNode([]byte("AAAA"))
	g.AddNode([]byte("CC"))
	g.AddNode([]byte("GGG"))
	if err := g.AddPath("p", []graph.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	idx, err := NewPathIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 4, 6}
	for i, w := range want {
		if idx.starts[0][i] != w {
			t.Fatalf("offset %d = %d, want %d", i, idx.starts[0][i], w)
		}
	}
	if idx.lens[0] != 9 {
		t.Fatalf("path len = %d", idx.lens[0])
	}
}

func TestSGDReducesStress(t *testing.T) {
	g := testGraph(t)
	l, err := New(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Scramble the layout so there is real work to do.
	rng := xorshift(55)
	for i := range l.X {
		rng = xorshiftNext(rng)
		l.X[i] = float64(rng % 10000)
		rng = xorshiftNext(rng)
		l.Y[i] = float64(rng % 10000)
	}
	before := l.Stress(2000, 11)
	p := DefaultParams(g)
	p.Iterations = 15
	n := l.Run(p, nil)
	if n == 0 {
		t.Fatal("no updates applied")
	}
	after := l.Stress(2000, 11)
	if after >= before*0.5 {
		t.Fatalf("stress did not improve enough: %.4f → %.4f", before, after)
	}
}

// TestRunGolden pins the default run: the final coordinates and the
// profiled event stream must stay byte-identical across refactors, since
// the Fig. 6–8 characterisation columns are computed from that stream.
func TestRunGolden(t *testing.T) {
	g := testGraph(t)
	l, err := New(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	probe := perf.NewProbe()
	n := l.Run(DefaultParams(g), probe)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range l.X {
		put(math.Float64bits(l.X[i]))
		put(math.Float64bits(l.Y[i]))
	}
	for _, c := range probe.Ops {
		put(c)
	}
	put(probe.Loads)
	put(probe.Stores)
	put(probe.Branches)
	put(probe.Mispredicts)
	put(uint64(n))
	const want = "f0206c845f8b3835"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("layout golden hash = %s, want %s", got, want)
	}
}

func TestSampleStepPairBounds(t *testing.T) {
	g := testGraph(t)
	idx, err := NewPathIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xorshift(3)
	for i := 0; i < 10000; i++ {
		pi, si, sj := idx.sampleStepPair(&rng)
		if pi < 0 || pi >= len(idx.paths) {
			t.Fatalf("path index %d out of range", pi)
		}
		steps := len(idx.paths[pi].Nodes)
		if si < 0 || si >= steps || sj < 0 || sj >= steps {
			t.Fatalf("step indices (%d,%d) out of range [0,%d)", si, sj, steps)
		}
		if si == sj && steps > 1 {
			t.Fatal("sampled identical steps on a multi-step path")
		}
	}
}

func TestRunGPU(t *testing.T) {
	g := testGraph(t)
	l, err := New(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	dev := simt.A6000()
	p := DefaultGPUParams(20000)
	p.Iterations = 2
	m, err := l.RunGPU(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 7 shapes: theoretical occupancy 66.7%, high warp
	// utilization from warp merging, moderate BW utilization.
	if m.TheoreticalOccupancy < 0.66 || m.TheoreticalOccupancy > 0.67 {
		t.Fatalf("theoretical occupancy %.3f", m.TheoreticalOccupancy)
	}
	if m.WarpUtilization < 0.8 {
		t.Fatalf("warp utilization %.3f, want > 0.8 (warp merging)", m.WarpUtilization)
	}
	if m.DRAMBytes == 0 || m.TimeMS <= 0 {
		t.Fatal("no memory traffic or time recorded")
	}
}

func TestGPUBlock256BeatsBlock1024Occupancy(t *testing.T) {
	g := testGraph(t)
	l, _ := New(g, 7)
	dev := simt.A6000()
	big := DefaultGPUParams(20000)
	big.Iterations = 1
	m1024, err := l.RunGPU(dev, big)
	if err != nil {
		t.Fatal(err)
	}
	small := big
	small.BlockSize = 256
	m256, err := l.RunGPU(dev, small)
	if err != nil {
		t.Fatal(err)
	}
	// §5.3: reducing block size 1024 → 256 raises theoretical occupancy
	// from 66.7% to 83.3%.
	if m256.TheoreticalOccupancy <= m1024.TheoreticalOccupancy {
		t.Fatalf("256-block occupancy %.3f should exceed 1024-block %.3f",
			m256.TheoreticalOccupancy, m1024.TheoreticalOccupancy)
	}
	if m256.TheoreticalOccupancy < 0.83 || m256.TheoreticalOccupancy > 0.84 {
		t.Fatalf("256-block theoretical occupancy %.3f, want ≈ 0.833", m256.TheoreticalOccupancy)
	}
}
