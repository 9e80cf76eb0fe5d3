package align

import (
	"math/rand"
	"reflect"
	"testing"

	"pangenomicsbench/internal/bio"
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

// TestGSSWWorkspaceReusedMatchesFresh: the arena-backed GSSW must reproduce
// the fresh-allocation result bit for bit — score, coordinates, path, and
// cigar — across reuse with varying graph and query sizes (stale arena
// contents must never leak into column 0 or the traceback).
func TestGSSWWorkspaceReusedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var ws GSSWWorkspace
	for iter := 0; iter < 60; iter++ {
		g := randomSmallDAG(rng)
		q := randSeq(rng, 1+rng.Intn(60))
		got, err := ws.Align(g, q, bio.DefaultScoring, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := GSSW(g, q, bio.DefaultScoring, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: reused workspace %+v != fresh %+v", iter, got, want)
		}
	}
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
		// TopoSort and the traceback path/cigar still allocate per call;
		// the DP matrices (the §5.2 triple footprint) must not.
		warmAndPin(t, 16, func() {
			if _, err := ws.Align(gr, q, bio.DefaultScoring, nil); err != nil {
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
