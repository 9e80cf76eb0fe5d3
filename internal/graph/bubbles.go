package graph

// Bubble is a simple bubble: a source node with ≥2 parallel arm nodes that
// all reconverge on the same sink. Bubbles are the graph signature of
// variants (SNPs and small indels each leave one) and the unit the
// polishing stages inspect.
type Bubble struct {
	Source NodeID
	Arms   []NodeID
	Sink   NodeID
}

// SimpleBubbles enumerates simple bubbles: for each node s with out-degree
// ≥ 2, the children of s that have exactly one parent (s) and exactly one
// child t shared with at least one sibling form a bubble (s, arms, t).
// Deletion edges (direct s→t) are allowed and don't appear as arms.
func SimpleBubbles(g *Graph) []Bubble {
	var out []Bubble
	for i := 1; i <= g.NumNodes(); i++ {
		s := NodeID(i)
		children := g.Out(s)
		if len(children) < 2 {
			continue
		}
		// Group candidate arms by their unique sink.
		bySink := map[NodeID][]NodeID{}
		for _, c := range children {
			if len(g.In(c)) != 1 || len(g.Out(c)) != 1 {
				continue
			}
			bySink[g.Out(c)[0]] = append(bySink[g.Out(c)[0]], c)
		}
		for sink, arms := range bySink {
			// A direct s→sink edge means a deletion allele alongside arms.
			if len(arms) >= 2 || (len(arms) == 1 && g.HasEdge(s, sink)) {
				out = append(out, Bubble{Source: s, Arms: arms, Sink: sink})
			}
		}
	}
	return out
}
