package align

import (
	"math/rand"
	"reflect"
	"testing"
)

// poaTestSeqs returns a backbone and n variants with scattered substitutions,
// deterministic for a fixed seed.
func poaTestSeqs(n, length int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	bases := []byte("ACGT")
	backbone := make([]byte, length)
	for i := range backbone {
		backbone[i] = bases[rng.Intn(4)]
	}
	out := [][]byte{backbone}
	for v := 1; v < n; v++ {
		variant := append([]byte(nil), backbone...)
		for m := 0; m < length/50+1; m++ {
			variant[rng.Intn(length)] = bases[rng.Intn(4)]
		}
		out = append(out, variant)
	}
	return out
}

// TestPOAAddSequenceAllocs pins the steady state of the grow-only scratch:
// once it is warm, aligning another sequence that adds no node or edge must
// not allocate at all — topological order, ranks, band rows, query codes and
// the traceback all live in scratch. (The full-matrix kernel allocated 3
// rows per rank, ≈900 here; pooling its rows left ~18 per-call slices.)
func TestPOAAddSequenceAllocs(t *testing.T) {
	seqs := poaTestSeqs(3, 300, 1)
	p := NewPOA()
	for _, s := range seqs {
		if err := p.AddSequence(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Re-adding the backbone aligns as all-matches: the graph stops growing,
	// so steady-state allocations are observable.
	avg := testing.AllocsPerRun(10, func() {
		if err := p.AddSequence(seqs[0], nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("AddSequence allocated %.0f times per run with warm scratch; want 0", avg)
	}
	// A Reset graph rebuilt from the same sequences reuses its node slots
	// and their edge lists.
	avg = testing.AllocsPerRun(10, func() {
		p.Reset()
		for _, s := range seqs {
			if err := p.AddSequence(s, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg > 0 {
		t.Errorf("rebuilding a Reset POA allocated %.0f times per run; want 0", avg)
	}
}

// TestPOADPIndependentOfScratchContents guards against stale-scratch bugs:
// alignToGraph over poisoned scratch must return exactly the ops a clean
// run produces, banded and unbanded, on the same graph and on one rebuilt
// after Reset.
func TestPOADPIndependentOfScratchContents(t *testing.T) {
	for _, band := range []int{0, 8} {
		seqs := poaTestSeqs(4, 200, 2)
		p := NewPOA()
		p.Band = band
		build := func() {
			for _, s := range seqs {
				if err := p.AddSequence(s, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		align := func() []poaOp {
			order, rank := p.topo()
			return append([]poaOp(nil), p.alignToGraph(seqs[1], order, rank, nil)...)
		}
		poison := func() {
			sc := &p.scratch
			for _, s := range [][]int{sc.order[:cap(sc.order)], sc.rank[:cap(sc.rank)], sc.indeg[:cap(sc.indeg)]} {
				for i := range s {
					s[i] = 0x3b3b
				}
			}
			for _, s := range [][]int32{sc.score[:cap(sc.score)], sc.from[:cap(sc.from)], sc.lo[:cap(sc.lo)], sc.hi[:cap(sc.hi)]} {
				for i := range s {
					s[i] = 12345
				}
			}
			for i := range sc.qcode[:cap(sc.qcode)] {
				sc.qcode[:cap(sc.qcode)][i] = 3
			}
			for i := range sc.ops[:cap(sc.ops)] {
				sc.ops[:cap(sc.ops)][i] = poaOp{7, 7}
			}
		}
		build()
		clean := align()
		poison()
		if dirty := align(); !reflect.DeepEqual(clean, dirty) {
			t.Fatalf("band %d: alignment depends on stale scratch contents", band)
		}
		// The same graph rebuilt in the same POA: Reset keeps the (now
		// poisoned) scratch and the old node slots, and must still produce
		// the graph a fresh POA builds and the alignment clean was.
		p.Reset()
		poison()
		build()
		ref := NewPOA()
		ref.Band = band
		for _, s := range seqs {
			if err := ref.AddSequence(s, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := samePOAGraph(p, ref); err != nil {
			t.Fatalf("band %d: graph rebuilt after Reset differs from a fresh one: %v", band, err)
		}
		if again := align(); !reflect.DeepEqual(clean, again) {
			t.Fatalf("band %d: alignment after Reset depends on stale scratch contents", band)
		}
	}
}

var poaBenchSink int

// BenchmarkPOAPolishWindow is the paired before/after of the band-resident
// kernel on one smoothXG polish window as PGGB runs it — 4 × 600 bp, Band
// 48, multiple alignment plus consensus: oracle is the full-matrix kernel
// on a fresh POA per window, band the production kernel on one reused POA.
func BenchmarkPOAPolishWindow(b *testing.B) {
	seqs := poaTestSeqs(4, 600, 3)
	bytes := int64(0)
	for _, s := range seqs {
		bytes += int64(len(s))
	}
	b.Run("oracle", func(b *testing.B) {
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := NewPOA()
			p.Band = 48
			for _, s := range seqs {
				p.oracleAddSequence(s)
			}
			poaBenchSink += len(p.oracleConsensus())
		}
	})
	b.Run("band", func(b *testing.B) {
		b.SetBytes(bytes)
		b.ReportAllocs()
		p := NewPOA()
		p.Band = 48
		for i := 0; i < b.N; i++ {
			p.Reset()
			for _, s := range seqs {
				if err := p.AddSequence(s, nil); err != nil {
					b.Fatal(err)
				}
			}
			poaBenchSink += len(p.Consensus())
		}
	})
}
