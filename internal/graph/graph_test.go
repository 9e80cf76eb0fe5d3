package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds 1→{2,3}→4 with node sequences of the given lengths.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddNode([]byte("ACGT"))  // 1
	g.AddNode([]byte("AA"))    // 2
	g.AddNode([]byte("GGGGG")) // 3
	g.AddNode([]byte("TT"))    // 4
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	return g
}

func TestAddNodeEdge(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("nodes/edges = %d/%d", g.NumNodes(), g.NumEdges())
	}
	g.AddEdge(1, 2) // duplicate ignored
	if g.NumEdges() != 4 {
		t.Fatal("duplicate edge not ignored")
	}
	if !g.HasEdge(1, 3) || g.HasEdge(3, 1) {
		t.Fatal("HasEdge wrong")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 99) {
		t.Fatal("HasEdge must reject invalid IDs")
	}
	if string(g.Seq(3)) != "GGGGG" {
		t.Fatal("Seq wrong")
	}
	if len(g.In(4)) != 2 || len(g.Out(1)) != 2 {
		t.Fatal("adjacency wrong")
	}
}

func TestTopoSort(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range [][2]NodeID{{1, 2}, {1, 3}, {2, 4}, {3, 4}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("topo order violates edge %v", e)
		}
	}
	if !g.IsAcyclic() {
		t.Fatal("diamond is acyclic")
	}
	g.AddEdge(4, 1)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
}

// TestTopoOrderReuse: one TopoOrder sorting a larger graph, a cyclic one and
// a smaller one gives Kahn's FIFO order every time, as a fresh sort does.
func TestTopoOrderReuse(t *testing.T) {
	var to TopoOrder
	big := New()
	for i := 0; i < 7; i++ {
		big.AddNode([]byte("A"))
	}
	for _, e := range [][2]NodeID{{1, 3}, {2, 3}, {3, 5}, {3, 4}, {4, 6}, {5, 6}, {7, 6}} {
		big.AddEdge(e[0], e[1])
	}
	cyclic := diamond(t)
	cyclic.AddEdge(4, 1)
	for i, tc := range []struct {
		g    *Graph
		want []NodeID
	}{
		{big, []NodeID{1, 2, 7, 3, 5, 4, 6}},
		{cyclic, nil},
		{diamond(t), []NodeID{1, 2, 3, 4}},
	} {
		got, err := to.Sort(tc.g)
		if (err != nil) != (tc.want == nil) || fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("case %d: order %v (err %v), want %v", i, got, err, tc.want)
		}
		fresh, _ := tc.g.TopoSort()
		if fmt.Sprint(got) != fmt.Sprint(fresh) {
			t.Fatalf("case %d: reused order %v != fresh %v", i, got, fresh)
		}
	}
}

func TestPaths(t *testing.T) {
	g := diamond(t)
	if err := g.AddPath("h1", []NodeID{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPath("bad", []NodeID{1, 99}); err == nil {
		t.Fatal("path with unknown node accepted")
	}
	if got := string(g.PathSeq(g.Paths()[0])); got != "ACGTAATT" {
		t.Fatalf("PathSeq = %q", got)
	}
	// AddPath through a non-edge creates the edge.
	if err := g.AddPath("h2", []NodeID{2, 3}); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(2, 3) {
		t.Fatal("AddPath must create missing edges")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathLen(t *testing.T) {
	g := diamond(t)
	if d := g.ShortestPathLen(1, 4); d != 2 {
		t.Fatalf("ShortestPathLen(1,4) = %d, want 2 (through node 2)", d)
	}
	if d := g.ShortestPathLen(1, 2); d != 0 {
		t.Fatalf("direct successor distance = %d, want 0", d)
	}
	if d := g.ShortestPathLen(4, 1); d != -1 {
		t.Fatalf("unreachable = %d, want -1", d)
	}
	if d := g.ShortestPathLen(2, 2); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestStatsAndValidate(t *testing.T) {
	g := diamond(t)
	s := g.ComputeStats()
	if s.Nodes != 4 || s.Edges != 4 || s.TotalBases != 13 || s.MaxNodeLen != 5 || !s.Acyclic {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgNodeLen != 13.0/4 {
		t.Fatalf("avg = %v", s.AvgNodeLen)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New()
	bad.AddNode(nil)
	if bad.Validate() == nil {
		t.Fatal("empty node sequence accepted")
	}
}

func TestExtractSubgraph(t *testing.T) {
	g := diamond(t)
	sub := Extract(g, 2, 100)
	if sub.NumNodes() != 4 {
		t.Fatalf("radius 100 should reach all nodes, got %d", sub.NumNodes())
	}
	if sub.Root == 0 || sub.Orig[sub.Root-1] != 2 {
		t.Fatal("root mapping wrong")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Radius 0: only the seed.
	tiny := Extract(g, 2, 0)
	if tiny.NumNodes() != 1 {
		t.Fatalf("radius 0 extracted %d nodes", tiny.NumNodes())
	}
	// Edges must be preserved among extracted nodes.
	full := Extract(g, 1, 1000)
	if full.NumEdges() != 4 {
		t.Fatalf("extracted %d edges, want 4", full.NumEdges())
	}
}

func TestAcyclify(t *testing.T) {
	g := New()
	for i := 0; i < 3; i++ {
		g.AddNode([]byte("A"))
	}
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1) // cycle
	sub := &Subgraph{Graph: g, Orig: []NodeID{1, 2, 3}, Root: 1}
	dag := sub.Acyclify()
	if !dag.IsAcyclic() {
		t.Fatal("Acyclify left a cycle")
	}
	if dag.NumNodes() != 3 {
		t.Fatal("Acyclify changed node count")
	}
	if !dag.HasEdge(1, 2) || !dag.HasEdge(2, 3) {
		t.Fatal("Acyclify dropped forward edges")
	}
}

func TestSplitPreservesSequence(t *testing.T) {
	g := New()
	g.AddNode([]byte("ACGTACGTACGTACGTACGTACGTACG")) // 27 bp
	g.AddNode([]byte("TT"))
	g.AddEdge(1, 2)
	if err := g.AddPath("h", []NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	split := Split(g, 8)
	if split.ComputeStats().MaxNodeLen > 8 {
		t.Fatal("Split left a long node")
	}
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	// Path sequence must be unchanged.
	want := string(g.PathSeq(g.Paths()[0]))
	got := string(split.PathSeq(split.Paths()[0]))
	if got != want {
		t.Fatalf("split path seq %q != original %q", got, want)
	}
	// Edge 1→2 must survive as lastChunk(1)→firstChunk(2).
	if !split.IsAcyclic() {
		t.Fatal("split of a DAG must stay a DAG")
	}
}

func TestSplitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 12, 20)
		split := Split(g, 4)
		if split.ComputeStats().MaxNodeLen > 4 {
			return false
		}
		if split.Validate() != nil {
			return false
		}
		for i, p := range g.Paths() {
			if string(g.PathSeq(p)) != string(split.PathSeq(split.Paths()[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomDAG builds a random DAG with a random embedded path.
func randomDAG(rng *rand.Rand, nodes, edges int) *Graph {
	g := New()
	for i := 0; i < nodes; i++ {
		n := rng.Intn(12) + 1
		seq := make([]byte, n)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
		}
		g.AddNode(seq)
	}
	for i := 0; i < edges; i++ {
		a := rng.Intn(nodes-1) + 1
		b := a + 1 + rng.Intn(nodes-a)
		g.AddEdge(NodeID(a), NodeID(b))
	}
	// A path following increasing IDs along existing edges.
	var walk []NodeID
	cur := NodeID(1)
	walk = append(walk, cur)
	for {
		outs := g.Out(cur)
		if len(outs) == 0 {
			break
		}
		cur = outs[rng.Intn(len(outs))]
		walk = append(walk, cur)
	}
	if err := g.AddPath("p", walk); err != nil {
		panic(err)
	}
	return g
}

func TestNodePanicsOnBadID(t *testing.T) {
	g := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Node(0) must panic")
		}
	}()
	g.Node(0)
}
