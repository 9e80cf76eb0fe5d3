// Package graph implements the pangenome sequence graph used throughout the
// suite: sequence-labelled nodes, directed edges, and embedded paths
// (haplotypes). It provides the graph operations the paper's kernels depend
// on — topological sort (GSSW), subgraph extraction around seed hits
// (Seq2Graph mapping), node splitting (the Fig. 11 Split-M-Graph case
// study), and shortest-path distances (graph-aware chaining).
package graph

import "fmt"

// NodeID identifies a node. IDs are dense and start at 1; 0 is invalid.
type NodeID int32

// Node is one graph node holding a subsequence of the pangenome.
type Node struct {
	ID  NodeID
	Seq []byte
}

// Path is a named walk through the graph; in a pangenome each path is one
// haplotype's route.
type Path struct {
	Name  string
	Nodes []NodeID
}

// Graph is a directed sequence graph with embedded paths.
type Graph struct {
	nodes []Node     // nodes[i] has ID i+1
	out   [][]NodeID // adjacency, parallel to nodes
	in    [][]NodeID
	paths []Path
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node with the given sequence and returns its ID.
func (g *Graph) AddNode(seq []byte) NodeID {
	id := NodeID(len(g.nodes) + 1)
	g.nodes = append(g.nodes, Node{ID: id, Seq: seq})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, e := range g.out {
		n += len(e)
	}
	return n
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node {
	g.check(id)
	return g.nodes[id-1]
}

// Seq returns the sequence of node id.
func (g *Graph) Seq(id NodeID) []byte { return g.Node(id).Seq }

// Valid reports whether id names a node of g.
func (g *Graph) Valid(id NodeID) bool { return id >= 1 && int(id) <= len(g.nodes) }

func (g *Graph) check(id NodeID) {
	if !g.Valid(id) {
		panic(fmt.Sprintf("graph: node %d out of range [1,%d]", id, len(g.nodes)))
	}
}

// AddEdge inserts the directed edge from → to; duplicate edges are ignored.
func (g *Graph) AddEdge(from, to NodeID) {
	g.check(from)
	g.check(to)
	for _, t := range g.out[from-1] {
		if t == to {
			return
		}
	}
	g.out[from-1] = append(g.out[from-1], to)
	g.in[to-1] = append(g.in[to-1], from)
}

// HasEdge reports whether from → to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	if !g.Valid(from) || !g.Valid(to) {
		return false
	}
	for _, t := range g.out[from-1] {
		if t == to {
			return true
		}
	}
	return false
}

// Out returns the successors of id (shared slice; do not mutate).
func (g *Graph) Out(id NodeID) []NodeID {
	g.check(id)
	return g.out[id-1]
}

// In returns the predecessors of id (shared slice; do not mutate).
func (g *Graph) In(id NodeID) []NodeID {
	g.check(id)
	return g.in[id-1]
}

// AddPath embeds a named walk. Every consecutive pair must be an edge (the
// edge is created if missing), so paths are always valid walks.
func (g *Graph) AddPath(name string, nodes []NodeID) error {
	for _, id := range nodes {
		if !g.Valid(id) {
			return fmt.Errorf("graph: path %q references unknown node %d", name, id)
		}
	}
	for i := 1; i < len(nodes); i++ {
		g.AddEdge(nodes[i-1], nodes[i])
	}
	g.paths = append(g.paths, Path{Name: name, Nodes: append([]NodeID(nil), nodes...)})
	return nil
}

// Paths returns the embedded paths (shared; do not mutate).
func (g *Graph) Paths() []Path { return g.paths }

// PathSeq concatenates the sequences along path p.
func (g *Graph) PathSeq(p Path) []byte {
	var out []byte
	for _, id := range p.Nodes {
		out = append(out, g.Seq(id)...)
	}
	return out
}

// TotalSeqLen returns the sum of node sequence lengths.
func (g *Graph) TotalSeqLen() int {
	n := 0
	for _, nd := range g.nodes {
		n += len(nd.Seq)
	}
	return n
}

// TopoSort returns the node IDs in a topological order, or an error if the
// graph contains a cycle (Kahn's algorithm).
func (g *Graph) TopoSort() ([]NodeID, error) {
	var t TopoOrder
	return t.Sort(g)
}

// TopoOrder is reusable storage for TopoSort; the zero value is ready.
type TopoOrder struct {
	order []NodeID
	indeg []int
}

// Sort is TopoSort into t's storage, which grows only: the returned order
// is valid until the next Sort. The order itself serves as Kahn's FIFO
// queue, since every node leaves the queue in the order it entered.
func (t *TopoOrder) Sort(g *Graph) ([]NodeID, error) {
	n := len(g.nodes)
	if cap(t.indeg) < n {
		t.indeg = make([]int, n)
		t.order = make([]NodeID, 0, n)
	}
	indeg, order := t.indeg[:n], t.order[:0]
	for i := range g.nodes {
		indeg[i] = len(g.in[i])
		if indeg[i] == 0 {
			order = append(order, NodeID(i+1))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, to := range g.out[order[head]-1] {
			indeg[to-1]--
			if indeg[to-1] == 0 {
				order = append(order, to)
			}
		}
	}
	t.order = order
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes sorted)", len(order), n)
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycles.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// ShortestPathLen returns the minimum number of base pairs between the end
// of node from and the start of node to, following directed edges (0 when
// to is a direct successor of from), or -1 when unreachable.
func (g *Graph) ShortestPathLen(from, to NodeID) int {
	return g.ShortestPathLenBounded(from, to, -1)
}

// ShortestPathLenBounded is ShortestPathLen with a search limit: paths
// longer than limit base pairs are reported as unreachable (-1). A negative
// limit disables the bound. This is the graph-distance primitive Seq2Graph
// chaining needs in place of coordinate subtraction (§2.1); bounding it is
// what keeps clustering tractable on large graphs.
func (g *Graph) ShortestPathLenBounded(from, to NodeID, limit int) int {
	g.check(from)
	g.check(to)
	if from == to {
		return 0
	}
	dist := make(map[NodeID]int)
	// Priority queue as sorted insertion; graphs traversed here are small
	// local regions so simplicity wins.
	type item struct {
		id NodeID
		d  int
	}
	pq := []item{}
	push := func(id NodeID, d int) {
		if limit >= 0 && d > limit {
			return
		}
		if old, ok := dist[id]; ok && old <= d {
			return
		}
		dist[id] = d
		pq = append(pq, item{id, d})
	}
	for _, s := range g.out[from-1] {
		if s == to {
			return 0
		}
		push(s, len(g.Seq(s)))
	}
	for len(pq) > 0 {
		// Extract min.
		mi := 0
		for i := 1; i < len(pq); i++ {
			if pq[i].d < pq[mi].d {
				mi = i
			}
		}
		cur := pq[mi]
		pq[mi] = pq[len(pq)-1]
		pq = pq[:len(pq)-1]
		if d, ok := dist[cur.id]; !ok || cur.d > d {
			continue
		}
		for _, s := range g.out[cur.id-1] {
			if s == to {
				return cur.d
			}
			nd := cur.d + len(g.Seq(s))
			if old, ok := dist[s]; !ok || nd < old {
				push(s, nd)
			}
		}
	}
	return -1
}

// Stats summarizes the graph for dataset tables and the Fig. 11 case study.
type Stats struct {
	Nodes      int
	Edges      int
	Paths      int
	TotalBases int
	AvgNodeLen float64
	MaxNodeLen int
	Acyclic    bool
}

// ComputeStats returns summary statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Nodes:   g.NumNodes(),
		Edges:   g.NumEdges(),
		Paths:   len(g.paths),
		Acyclic: g.IsAcyclic(),
	}
	for _, nd := range g.nodes {
		s.TotalBases += len(nd.Seq)
		if len(nd.Seq) > s.MaxNodeLen {
			s.MaxNodeLen = len(nd.Seq)
		}
	}
	if s.Nodes > 0 {
		s.AvgNodeLen = float64(s.TotalBases) / float64(s.Nodes)
	}
	return s
}

// Validate checks structural invariants: node sequences non-empty, edges
// symmetric between in/out lists, and paths are edge-respecting walks.
func (g *Graph) Validate() error {
	for _, nd := range g.nodes {
		if len(nd.Seq) == 0 {
			return fmt.Errorf("graph: node %d has empty sequence", nd.ID)
		}
	}
	for i, outs := range g.out {
		from := NodeID(i + 1)
		for _, to := range outs {
			found := false
			for _, f := range g.in[to-1] {
				if f == from {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: edge %d→%d missing from in-list", from, to)
			}
		}
	}
	for _, p := range g.paths {
		for i := 1; i < len(p.Nodes); i++ {
			if !g.HasEdge(p.Nodes[i-1], p.Nodes[i]) {
				return fmt.Errorf("graph: path %q step %d→%d is not an edge", p.Name, p.Nodes[i-1], p.Nodes[i])
			}
		}
	}
	return nil
}

// SortedNodeIDs returns all node IDs ascending.
func (g *Graph) SortedNodeIDs() []NodeID {
	ids := make([]NodeID, len(g.nodes))
	for i := range g.nodes {
		ids[i] = NodeID(i + 1)
	}
	return ids
}
