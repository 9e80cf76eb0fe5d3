package graph

import (
	"testing"
)

func TestSimpleBubblesSNP(t *testing.T) {
	// 1 → {2,3} → 4 : one SNP-like bubble.
	g := New()
	g.AddNode([]byte("AAAA"))
	g.AddNode([]byte("C"))
	g.AddNode([]byte("G"))
	g.AddNode([]byte("TTTT"))
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	bubbles := SimpleBubbles(g)
	if len(bubbles) != 1 {
		t.Fatalf("bubbles = %d, want 1", len(bubbles))
	}
	b := bubbles[0]
	if b.Source != 1 || b.Sink != 4 || len(b.Arms) != 2 {
		t.Fatalf("bubble = %+v", b)
	}
}

func TestSimpleBubblesDeletion(t *testing.T) {
	// 1 → 2 → 3 with a deletion edge 1 → 3: one single-arm bubble.
	g := New()
	g.AddNode([]byte("AAAA"))
	g.AddNode([]byte("CCC"))
	g.AddNode([]byte("TTTT"))
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	bubbles := SimpleBubbles(g)
	if len(bubbles) != 1 || len(bubbles[0].Arms) != 1 || bubbles[0].Arms[0] != 2 {
		t.Fatalf("bubbles = %+v", bubbles)
	}
}

func TestNoBubblesOnChain(t *testing.T) {
	g := New()
	g.AddNode([]byte("A"))
	g.AddNode([]byte("C"))
	g.AddEdge(1, 2)
	if got := SimpleBubbles(g); len(got) != 0 {
		t.Fatalf("chain has %d bubbles", len(got))
	}
}

func TestBubblesIgnoreComplexRegions(t *testing.T) {
	// Arms with extra in-edges are not simple-bubble arms.
	g := New()
	for i := 0; i < 5; i++ {
		g.AddNode([]byte("A"))
	}
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	g.AddEdge(5, 2) // node 2 has two parents → not a simple arm
	bubbles := SimpleBubbles(g)
	for _, b := range bubbles {
		for _, a := range b.Arms {
			if a == 2 {
				t.Fatal("arm with extra parent accepted")
			}
		}
	}
}
