package align

import (
	"math/rand"
	"testing"

	"pangenomicsbench/internal/graph"
)

// gwfaOracle is the Dijkstra oracle seeded where GWFAAt starts: offset
// startOff of node start, nothing of the query consumed.
func gwfaOracle(g *graph.Graph, start graph.NodeID, startOff int, query []byte) int {
	return graphEdit(g, query, []gstate{{start, int32(startOff), 0}}).Distance
}

// TestGWFAAtMatchesOracle checks GWFAAt from every kind of start — any node,
// any offset including the node's end — against the oracle, and checks that
// the reported (EndNode, EndRef) really is where an alignment of that
// distance ends: resuming a second piece there can never beat the oracle's
// distance for the two pieces aligned as one query.
func TestGWFAAtMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	offsets := 0
	for i := 0; i < 300; i++ {
		g := randomGraph(rng, true)
		start := graph.NodeID(1 + rng.Intn(g.NumNodes()))
		startOff := rng.Intn(len(g.Seq(start)) + 1)
		if startOff > 0 {
			offsets++
		}
		q1, q2 := randSeq(rng, 1+rng.Intn(24)), randSeq(rng, 1+rng.Intn(12))
		r1, err := GWFAAt(g, start, startOff, q1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := gwfaOracle(g, start, startOff, q1); r1.Distance != want {
			t.Fatalf("case %d: GWFAAt(%d, %d) = %d, oracle %d", i, start, startOff, r1.Distance, want)
		}
		if !g.Valid(r1.EndNode) || r1.EndRef < 0 || r1.EndRef > len(g.Seq(r1.EndNode)) {
			t.Fatalf("case %d: resume point (%d, %d) is not a graph position", i, r1.EndNode, r1.EndRef)
		}
		r2, err := GWFAAt(g, r1.EndNode, r1.EndRef, q2, nil)
		if err != nil {
			t.Fatal(err)
		}
		whole := gwfaOracle(g, start, startOff, append(append([]byte(nil), q1...), q2...))
		if r1.Distance+r2.Distance < whole {
			t.Fatalf("case %d: pieces %d+%d beat the whole-query oracle %d: (%d, %d) is not where piece 1 ends",
				i, r1.Distance, r2.Distance, whole, r1.EndNode, r1.EndRef)
		}
	}
	if offsets < 100 {
		t.Fatalf("only %d cases started at a non-zero offset", offsets)
	}
}

// TestGWFABounded pins the bound contract of AlignAt: min(d, bound+1), and
// the complete unbounded result whenever d fits the bound.
func TestGWFABounded(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var ws GWFAWorkspace
	for i := 0; i < 120; i++ {
		g := randomGraph(rng, true)
		start := graph.NodeID(1 + rng.Intn(g.NumNodes()))
		startOff := rng.Intn(len(g.Seq(start)) + 1)
		q := randSeq(rng, 1+rng.Intn(24))
		full, err := GWFAAt(g, start, startOff, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for bound := 0; bound <= full.Distance+2; bound++ {
			got, err := ws.AlignAt(g, start, startOff, q, bound, nil)
			if err != nil {
				t.Fatal(err)
			}
			if full.Distance <= bound {
				if got != full {
					t.Fatalf("case %d bound %d: %+v, want the unbounded result %+v", i, bound, got, full)
				}
			} else if got.Distance != bound+1 {
				t.Fatalf("case %d bound %d: distance %d, want %d (true distance %d)", i, bound, got.Distance, bound+1, full.Distance)
			}
		}
	}
}

// TestGWFAEndDeterministic runs one query 200 times over a bubble whose two
// arms are equally distant from it, fresh and on a reused workspace: the
// tie must resolve to the same (EndNode, EndRef) every time.
func TestGWFAEndDeterministic(t *testing.T) {
	g := graph.New()
	head := g.AddNode([]byte("ACGTAC"))
	armA := g.AddNode([]byte("GGA"))
	armB := g.AddNode([]byte("GGC"))
	tail := g.AddNode([]byte("TTACG"))
	for _, arm := range []graph.NodeID{armA, armB} {
		g.AddEdge(head, arm)
		g.AddEdge(arm, tail)
	}
	// Ends one base into the arms' differing position with a base neither
	// arm carries: both arms end the query at distance 1.
	query := []byte("ACGTACGGT")
	want, err := GWFA(g, head, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Distance != 1 || (want.EndNode != armA && want.EndNode != armB) {
		t.Fatalf("bubble query resolved to %+v, want distance 1 ending in an arm", want)
	}
	var ws GWFAWorkspace
	for run := 0; run < 200; run++ {
		fresh, err := GWFA(g, head, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := ws.Align(g, head, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != want || warm != want {
			t.Fatalf("run %d: fresh %+v, warm %+v, first run %+v", run, fresh, warm, want)
		}
	}
}

// fuzzGWFACase decodes a fuzz payload into a small connected graph (2–7
// nodes of 1–4 bases, a backbone chain plus arbitrary extra edges, cycles
// and self-loops included), a start position and an ACGT query.
func fuzzGWFACase(shape, q []byte, at uint8) (*graph.Graph, graph.NodeID, int, []byte) {
	next := func() byte {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return b
	}
	g := graph.New()
	n := 2 + int(next()%6)
	for i := 0; i < n; i++ {
		seq := make([]byte, 1+next()%4)
		for j := range seq {
			seq[j] = "ACGT"[next()&3]
		}
		id := g.AddNode(seq)
		if id > 1 {
			g.AddEdge(id-1, id)
		}
	}
	for len(shape) >= 2 {
		g.AddEdge(graph.NodeID(1+int(next())%n), graph.NodeID(1+int(next())%n))
	}
	if len(q) > 32 {
		q = q[:32]
	}
	query := make([]byte, len(q))
	for i, b := range q {
		query[i] = "ACGT"[b&3]
	}
	start := graph.NodeID(1 + int(at>>4)%n)
	return g, start, int(at&15) % (len(g.Seq(start)) + 1), query
}

// FuzzGWFAMatchesOracle checks the wavefront kernel against the Dijkstra
// oracle on graphs, queries and start offsets decoded from the payload, and
// the bound contract at the one bound that just misses the distance.
func FuzzGWFAMatchesOracle(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 2, 3, 2, 0, 0, 1, 2, 2, 1, 3, 3, 0, 2}, []byte("ACGTACGT"), uint8(0x12))
	f.Add([]byte{0}, []byte("TTTT"), uint8(0))
	f.Add([]byte{5, 0, 0, 0, 1, 0, 2, 0, 3, 0, 0, 0, 1, 4, 1, 2, 2}, []byte("AACCAACCAACC"), uint8(0x31))
	f.Add([]byte{3, 3, 1, 1, 1, 1, 3, 2, 2, 2, 2, 0, 0, 1, 1}, []byte{}, uint8(0xff))
	f.Fuzz(func(t *testing.T, shape, q []byte, at uint8) {
		g, start, startOff, query := fuzzGWFACase(shape, q, at)
		got, err := GWFAAt(g, start, startOff, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := gwfaOracle(g, start, startOff, query)
		if got.Distance != want {
			t.Fatalf("GWFAAt(%d, %d, %q) = %d, oracle %d", start, startOff, query, got.Distance, want)
		}
		if want > 0 {
			var ws GWFAWorkspace
			capped, err := ws.AlignAt(g, start, startOff, query, want-1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if capped.Distance != want {
				t.Fatalf("bound %d: distance %d, want bound+1", want-1, capped.Distance)
			}
		}
	})
}
