package gbwt

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pangenomicsbench/internal/graph"
)

// buildHaploGraph makes a graph with the given haplotype paths (node IDs
// allocated 1..n automatically).
func buildHaploGraph(t testing.TB, n int, paths [][]graph.NodeID) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode([]byte("A"))
	}
	for i, p := range paths {
		if err := g.AddPath(name(i), p); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func name(i int) string { return string(rune('a' + i)) }

// bruteFind scans all paths for occurrences of s and collects successors.
func bruteFind(paths []graph.Path, s []graph.NodeID) (count int, succs []graph.NodeID) {
	set := map[graph.NodeID]bool{}
	for _, p := range paths {
		for i := 0; i+len(s) <= len(p.Nodes); i++ {
			match := true
			for j := range s {
				if p.Nodes[i+j] != s[j] {
					match = false
					break
				}
			}
			if match {
				count++
				if i+len(s) < len(p.Nodes) {
					set[p.Nodes[i+len(s)]] = true
				}
			}
		}
	}
	for id := range set {
		succs = append(succs, id)
	}
	sort.Slice(succs, func(a, b int) bool { return succs[a] < succs[b] })
	return count, succs
}

func TestFindPaperExample(t *testing.T) {
	// Figure 4c: haplotypes 1→3→5 and 2→3→4. After matching 1→3, only 5 is
	// a valid continuation even though the graph has edge 3→4.
	g := buildHaploGraph(t, 5, [][]graph.NodeID{{1, 3, 5}, {2, 3, 4}})
	idx, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	st, succs := idx.Find([]graph.NodeID{1, 3}, nil)
	if st.Size() != 1 {
		t.Fatalf("1→3 occurrences = %d, want 1", st.Size())
	}
	if len(succs) != 1 || succs[0] != 5 {
		t.Fatalf("successors of 1→3 = %v, want [5]", succs)
	}
	st2, succs2 := idx.Find([]graph.NodeID{2, 3}, nil)
	if st2.Size() != 1 || len(succs2) != 1 || succs2[0] != 4 {
		t.Fatalf("2→3: size %d succs %v", st2.Size(), succs2)
	}
	// Node 3 alone matches both haplotypes.
	st3, succs3 := idx.Find([]graph.NodeID{3}, nil)
	if st3.Size() != 2 || len(succs3) != 2 {
		t.Fatalf("3: size %d succs %v", st3.Size(), succs3)
	}
	if idx.Contains([]graph.NodeID{1, 3, 4}, nil) {
		t.Fatal("1→3→4 is not a haplotype subpath")
	}
}

func TestFindMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(15)
		nPaths := 1 + rng.Intn(6)
		var paths [][]graph.NodeID
		for p := 0; p < nPaths; p++ {
			plen := 2 + rng.Intn(20)
			path := make([]graph.NodeID, plen)
			// Random walks with increasing-ish node IDs plus repeats to
			// exercise multi-occurrence ranges.
			for i := range path {
				path[i] = graph.NodeID(1 + rng.Intn(n))
			}
			paths = append(paths, path)
		}
		g := buildHaploGraph(t, n, paths)
		idx, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 30; q++ {
			// Query: subpath of a random path (so usually present), or a
			// random sequence (usually absent).
			var query []graph.NodeID
			if q%3 != 0 {
				p := paths[rng.Intn(len(paths))]
				qlen := 1 + rng.Intn(4)
				if qlen > len(p) {
					qlen = len(p)
				}
				start := rng.Intn(len(p) - qlen + 1)
				query = append(query, p[start:start+qlen]...)
			} else {
				for i := 0; i < 1+rng.Intn(3); i++ {
					query = append(query, graph.NodeID(1+rng.Intn(n)))
				}
			}
			wantCount, wantSuccs := bruteFind(g.Paths(), query)
			st, gotSuccs := idx.Find(query, nil)
			if st.Size() != wantCount {
				t.Fatalf("trial %d: Find(%v) count %d, want %d", trial, query, st.Size(), wantCount)
			}
			if wantCount > 0 {
				if len(gotSuccs) != len(wantSuccs) {
					t.Fatalf("trial %d: Find(%v) succs %v, want %v", trial, query, gotSuccs, wantSuccs)
				}
				for i := range wantSuccs {
					if gotSuccs[i] != wantSuccs[i] {
						t.Fatalf("trial %d: Find(%v) succs %v, want %v", trial, query, gotSuccs, wantSuccs)
					}
				}
			}
		}
	}
}

func TestFindProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		paths := [][]graph.NodeID{}
		for p := 0; p < 1+rng.Intn(3); p++ {
			path := make([]graph.NodeID, 1+rng.Intn(10))
			for i := range path {
				path[i] = graph.NodeID(1 + rng.Intn(n))
			}
			paths = append(paths, path)
		}
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode([]byte("C"))
		}
		for i, p := range paths {
			if err := g.AddPath(name(i), p); err != nil {
				return false
			}
		}
		idx, err := Build(g)
		if err != nil {
			return false
		}
		// Every length-2 window of every path must be found.
		for _, p := range paths {
			for i := 0; i+2 <= len(p); i++ {
				if !idx.Contains(p[i:i+2], nil) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	g := graph.New()
	g.AddNode([]byte("A"))
	if _, err := Build(g); err == nil {
		t.Fatal("graph without paths must be rejected")
	}
}

func TestFindEdgeCases(t *testing.T) {
	g := buildHaploGraph(t, 3, [][]graph.NodeID{{1, 2, 3}})
	idx, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := idx.Find(nil, nil); !st.Empty() {
		t.Fatal("empty query must match nothing")
	}
	// Unknown node.
	if idx.Contains([]graph.NodeID{99}, nil) {
		t.Fatal("unknown node must not match")
	}
	// Final node has no successors.
	st, succs := idx.Find([]graph.NodeID{3}, nil)
	if st.Size() != 1 || len(succs) != 0 {
		t.Fatalf("terminal node: size %d succs %v", st.Size(), succs)
	}
}
