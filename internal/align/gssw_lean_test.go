package align

import (
	"math/rand"
	"testing"

	"pangenomicsbench/internal/bio"
)

func TestGSSWLeanMatchesGSSWScore(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sc := bio.DefaultScoring
	for i := 0; i < 60; i++ {
		g := randomSmallDAG(rng)
		paths := allPathSeqs(g)
		query := mutate(rng, paths[rng.Intn(len(paths))], 0.1)
		if len(query) > 64 {
			query = query[:64]
		}
		full, err := GSSW(g, query, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		lean, err := GSSWLean(g, query, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lean.Score != full.Score {
			t.Fatalf("case %d: lean score %d != full %d", i, lean.Score, full.Score)
		}
	}
}

func TestGSSWLeanRejectsCycles(t *testing.T) {
	g := linearGraph([]byte("ACGT"), 2)
	g.AddEdge(2, 1)
	if _, err := GSSWLean(g, []byte("AC"), bio.DefaultScoring, nil); err == nil {
		t.Fatal("cycle must be rejected")
	}
}

// TestGSSWLeanFewerStores is the §6.1 optimization claim: dropping the
// intra-node write-back removes most memory stores.
func TestGSSWLeanFewerStores(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := linearGraph(randSeq(rng, 400), 30)
	query := randSeq(rng, 100)
	sc := bio.DefaultScoring

	fullProbe := newCountingProbe()
	if _, err := GSSW(g, query, sc, fullProbe); err != nil {
		t.Fatal(err)
	}
	leanProbe := newCountingProbe()
	if _, err := GSSWLean(g, query, sc, leanProbe); err != nil {
		t.Fatal(err)
	}
	if leanProbe.Stores*4 > fullProbe.Stores {
		t.Fatalf("lean stores %d should be ≪ full stores %d", leanProbe.Stores, fullProbe.Stores)
	}
}
