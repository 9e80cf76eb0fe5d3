package align

import (
	"math/rand"
	"reflect"
	"testing"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// TestGBVWorkspaceReusedMatchesFresh: a workspace reused across differently
// sized problems (stale scratch contents) must still match a fresh run
// exactly, including the EndNode tie-break fixed by heap pop order.
func TestGBVWorkspaceReusedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var ws GBVWorkspace
	for iter := 0; iter < 60; iter++ {
		g := randomGraph(rng, true)
		q := randSeq(rng, 1+rng.Intn(MaxMyersQuery))
		got, err := ws.Align(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := GBV(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: reused workspace %+v != fresh %+v", iter, got, want)
		}
	}
}

// TestGWFAWorkspaceReusedMatchesFresh: a wavefront workspace reused across
// differently sized graphs and queries (stale rows, arena and point slices)
// must match a fresh run exactly — Distance and the (EndNode, EndRef)
// resume point, which append-order point visiting makes a function of the
// inputs alone.
func TestGWFAWorkspaceReusedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var ws GWFAWorkspace
	for iter := 0; iter < 60; iter++ {
		g := randomGraph(rng, true)
		q := randSeq(rng, rng.Intn(80))
		got, err := ws.Align(g, 1, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := GWFAAt(g, 1, 0, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: reused workspace %+v != fresh %+v", iter, got, want)
		}
	}
}

// TestGSSWWorkspaceReusedMatchesFresh: one reused workspace's boundary-only
// pass must give GSSW's score and end cell, and exactly what a fresh
// GSSWLean gives, across graphs and queries (1-300 bp) that make the
// workspace grow and shrink; stale boundary vectors must never leak.
func TestGSSWWorkspaceReusedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var ws GSSWWorkspace
	for iter := 0; iter < 80; iter++ {
		g := randomGrowDAG(rng, 1+rng.Intn(48), 1+rng.Intn(30))
		q := randSeq(rng, 1+rng.Intn(300))
		if iter%2 == 0 {
			// Half the queries come from a walk through the graph, so
			// scores are large.
			var walk []byte
			for id := graph.NodeID(1); ; {
				walk = append(walk, g.Seq(id)...)
				out := g.Out(id)
				if len(out) == 0 {
					break
				}
				id = out[rng.Intn(len(out))]
			}
			q = mutate(rng, walk, 0.02)
			q = q[:min(len(q), 1+rng.Intn(300))]
		}
		got, err := ws.Lean(g, q, bio.DefaultScoring, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, err := GSSW(g, q, bio.DefaultScoring, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != full.Score || got.EndNode != full.EndNode || got.EndOffset != full.EndOffset {
			t.Fatalf("iter %d: reused Lean (%d, node %d, off %d) != GSSW (%d, node %d, off %d)",
				iter, got.Score, got.EndNode, got.EndOffset, full.Score, full.EndNode, full.EndOffset)
		}
		fresh, err := GSSWLean(g, q, bio.DefaultScoring, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("iter %d: reused Lean %+v != fresh GSSWLean %+v", iter, got, fresh)
		}
	}
}

// TestGSSWWorkspaceProbeStream: a warm workspace's Lean records the same
// event stream as a fresh GSSWLean, so the opt-gssw lean row does not
// depend on which one ran.
func TestGSSWWorkspaceProbeStream(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var ws GSSWWorkspace
	for iter := 0; iter < 6; iter++ {
		g := randomGrowDAG(rng, 2+rng.Intn(20), 1+rng.Intn(20))
		q := randSeq(rng, 1+rng.Intn(200))
		if _, err := ws.Lean(randomSmallDAG(rng), randSeq(rng, 250), bio.DefaultScoring, nil); err != nil {
			t.Fatal(err)
		}
		warm, fresh := perf.NewProbe(), perf.NewProbe()
		if _, err := ws.Lean(g, q, bio.DefaultScoring, warm); err != nil {
			t.Fatal(err)
		}
		if _, err := GSSWLean(g, q, bio.DefaultScoring, fresh); err != nil {
			t.Fatal(err)
		}
		if w, f := perf.NewReport("lean", warm), perf.NewReport("lean", fresh); !reflect.DeepEqual(w, f) {
			t.Fatalf("iter %d: warm workspace report %+v != fresh %+v", iter, w, f)
		}
	}
}

// randomGrowDAG is a chain of n nodes of 1..maxLen bp plus n/2 random
// forward edges: acyclic, with sizes the caller varies.
func randomGrowDAG(rng *rand.Rand, n, maxLen int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(randSeq(rng, 1+rng.Intn(maxLen)))
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for k := 0; k < n/2; k++ {
		a := 1 + rng.Intn(n-1)
		g.AddEdge(graph.NodeID(a), graph.NodeID(a+1+rng.Intn(n-a)))
	}
	return g
}

// TestBatchedKernelAllocs pins the near-zero steady-state allocation
// contract of the reusable graph-kernel workspaces, in the style of
// poa_alloc_test.go.
func TestBatchedKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))

	t.Run("gbv-workspace", func(t *testing.T) {
		gr := randomGraph(rng, true)
		q := randSeq(rng, MaxMyersQuery)
		var ws GBVWorkspace
		warmAndPin(t, 0, func() {
			if _, err := ws.Align(gr, q, nil); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("gwfa-workspace", func(t *testing.T) {
		gr := randomGraph(rng, true)
		q := randSeq(rng, 60)
		var ws GWFAWorkspace
		warmAndPin(t, 0, func() {
			if _, err := ws.Align(gr, 1, q, nil); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("gssw-workspace", func(t *testing.T) {
		gr := randomSmallDAG(rng)
		q := randSeq(rng, 40)
		var ws GSSWWorkspace
		warmAndPin(t, 0, func() {
			if _, err := ws.Lean(gr, q, bio.DefaultScoring, nil); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// warmAndPin warms fn once, then asserts its steady-state allocations stay
// at or below limit.
func warmAndPin(t *testing.T, limit float64, fn func()) {
	t.Helper()
	fn()
	if avg := testing.AllocsPerRun(10, fn); avg > limit {
		t.Errorf("steady-state allocs/op = %.1f, want <= %.0f", avg, limit)
	}
}

// FuzzMyers64MatchesOracle checks the bitvector kernel against the full-DP
// oracle: for every query length 1..64 carved from the fuzz payload,
// Myers64 and EditDistanceFull must agree on (Distance, EndRef), whatever
// the reference (empty, shorter than the query, all-N).
func FuzzMyers64MatchesOracle(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTAAAACCCCGGGGTTTT"), []byte("ACGTTCGTACGAACGT"))
	f.Add([]byte("A"), []byte("A"))
	f.Add([]byte("ACGTNNNNACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"), []byte("ACGTNNACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"))
	f.Add([]byte(""), []byte("ACGT"))
	f.Add([]byte("NNNNNNNNNNNNNNNN"), []byte("NNNNNNNN"))
	f.Fuzz(func(t *testing.T, ref, q []byte) {
		if len(q) > MaxMyersQuery {
			q = q[:MaxMyersQuery]
		}
		for m := 1; m <= len(q); m++ {
			got, err := Myers64(ref, q[:m], nil)
			if err != nil {
				t.Fatal(err) // m is always in [1,64]
			}
			want := EditDistanceFull(ref, q[:m])
			if got.Distance != want.Distance || got.EndRef != want.EndRef {
				t.Fatalf("|ref|=%d |q|=%d: Myers64 (%d, %d) != full DP (%d, %d)",
					len(ref), m, got.Distance, got.EndRef, want.Distance, want.EndRef)
			}
		}
	})
}
