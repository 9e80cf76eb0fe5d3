package minimizer

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pangenomicsbench/internal/bio"
)

// computeOracle is the two-pass O(n·w) minimizer loop ComputeInto replaced:
// hash every k-mer, then rescan all w hashes of every window. It is the
// reference the streaming deque is checked against.
func computeOracle(dst []Minimizer, seq []byte, k, w int) ([]Minimizer, error) {
	if k < 1 || k > 31 || w < 1 {
		return dst, fmt.Errorf("minimizer: invalid parameters k=%d w=%d", k, w)
	}
	n := len(seq)
	if n < k {
		return dst, nil
	}
	// Rolling k-mer encoding.
	var hashes []uint64
	var valid []bool
	var kmer uint64
	mask := (uint64(1) << uint(2*k)) - 1
	badUntil := -1
	for i := 0; i < n; i++ {
		c := bio.Code(seq[i])
		if c == bio.BaseN {
			badUntil = i + k // k-mers covering position i are invalid
		}
		kmer = ((kmer << 2) | uint64(c&3)) & mask
		if i >= k-1 {
			hashes = append(hashes, hashKmer(kmer))
			valid = append(valid, i >= badUntil)
		}
	}
	out := dst
	lastPos := -1
	for win := 0; win+w <= len(hashes); win++ {
		bestPos, bestHash := -1, ^uint64(0)
		for j := win; j < win+w; j++ {
			if valid[j] && hashes[j] < bestHash {
				bestPos, bestHash = j, hashes[j]
			}
		}
		if bestPos >= 0 && bestPos != lastPos {
			out = append(out, Minimizer{Pos: bestPos, Hash: bestHash})
			lastPos = bestPos
		}
	}
	return out, nil
}

// oracleSeq draws a sequence of length n over the first `letters` bases of
// ACGT, with each base replaced by N with probability nRate. One- and
// two-letter alphabets make hash ties dense.
func oracleSeq(rng *rand.Rand, n, letters int, nRate float64) []byte {
	s := make([]byte, n)
	for i := range s {
		if rng.Float64() < nRate {
			s[i] = 'N'
		} else {
			s[i] = "ACGT"[rng.Intn(letters)]
		}
	}
	return s
}

// checkAgainstOracle compares s.ComputeInto with computeOracle, both
// appending to a copy of dst, and reports the first difference.
func checkAgainstOracle(t *testing.T, s *Scratch, dst []Minimizer, seq []byte, k, w int) {
	t.Helper()
	want, werr := computeOracle(append([]Minimizer(nil), dst...), seq, k, w)
	got, gerr := s.ComputeInto(append([]Minimizer(nil), dst...), seq, k, w, nil)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("k=%d w=%d seq=%q: error %v, oracle %v", k, w, seq, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k=%d w=%d len=%d dst=%d seq=%q:\n got %v\nwant %v", k, w, len(seq), len(dst), seq, got, want)
	}
}

// TestComputeMatchesOracle checks the streaming deque against the O(n·w)
// loop over every k in 1..31 and w in 1..64, on sequences shorter than k,
// shorter than one window, and longer; over 1-, 2- and 4-letter alphabets;
// with N runs at the start, inside and at the end; appending onto a
// non-empty dst; and with one Scratch reused while w grows and shrinks.
func TestComputeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var s Scratch // shared across every case: w grows and shrinks
	prefix := []Minimizer{{Pos: 7, Hash: 1}, {Pos: 9, Hash: 2}}
	for k := 1; k <= 31; k++ {
		for w := 1; w <= 64; w++ {
			for _, n := range []int{k - 1, k + w - 2, k + w - 1, k + w + rng.Intn(3*w+40)} {
				if n < 0 {
					continue
				}
				for _, letters := range []int{1, 2, 4} {
					seq := oracleSeq(rng, n, letters, 0)
					checkAgainstOracle(t, &s, nil, seq, k, w)
					if n == 0 {
						continue
					}
					// N runs: within the first k bases, at the end, and
					// scattered (some long enough to empty whole windows).
					withN := append([]byte(nil), seq...)
					withN[rng.Intn(min(k, n))] = 'N'
					checkAgainstOracle(t, &s, nil, withN, k, w)
					withN[n-1] = 'n'
					for run := rng.Intn(k + w); run > 0; run-- {
						withN[rng.Intn(n)] = 'N'
					}
					checkAgainstOracle(t, &s, prefix, withN, k, w)
					checkAgainstOracle(t, &s, nil, oracleSeq(rng, n, letters, 0.05), k, w)
				}
			}
		}
	}
	for _, seq := range []string{"", "N", "NNNNNNNN", "ACGTNACGT", "acgtuACGTU", "AAAAAAAAAA", "ACACACACACACAC"} {
		for _, w := range []int{1, 3, 64} {
			checkAgainstOracle(t, &s, prefix, []byte(seq), 3, w)
		}
	}
	// Invalid parameters are rejected with dst returned unchanged.
	for _, p := range [][2]int{{0, 5}, {32, 5}, {4, 0}} {
		got, err := s.ComputeInto(prefix, []byte("ACGTACGT"), p[0], p[1], nil)
		if err == nil || !reflect.DeepEqual(got, prefix) {
			t.Fatalf("k=%d w=%d: got %v, %v; want prefix and an error", p[0], p[1], got, err)
		}
	}
}

// FuzzComputeMatchesOracle: for any sequence and parameters, the streaming
// deque and the O(n·w) loop agree.
func FuzzComputeMatchesOracle(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACNNACGATCGATCGGGCTA"), uint8(5), uint8(4))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(3), uint8(7))
	f.Add([]byte("NACACACACACACACACACACACACACACAN"), uint8(2), uint8(9))
	f.Add(bytes.Repeat([]byte("ACGT"), 40), uint8(15), uint8(10))
	f.Add([]byte("AC"), uint8(4), uint8(3))
	var s Scratch
	f.Fuzz(func(t *testing.T, seq []byte, k, w uint8) {
		checkAgainstOracle(t, &s, nil, seq, int(k%33), int(w%70))
	})
}

// TestComputeIntoWarmZeroAlloc pins the seeding hot path: with a warm
// Scratch and a recycled dst, ComputeInto allocates nothing.
func TestComputeIntoWarmZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := randSeq(rng, 4000)
	var s Scratch
	dst, err := s.ComputeInto(nil, seq, 15, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, _ = s.ComputeInto(dst[:0], seq, 15, 10, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm ComputeInto: %.1f allocs/run, want 0", allocs)
	}
}

var benchSink []Minimizer

// BenchmarkComputeInto pairs the streaming deque with the O(n·w) oracle in
// one process, on a short-read and a long-read length at k=15, w=10.
func BenchmarkComputeInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{150, 4000} {
		seq := randSeq(rng, n)
		name := fmt.Sprintf("%dbp", n)
		if n >= 1000 {
			name = fmt.Sprintf("%dkb", n/1000)
		}
		b.Run("deque/"+name, func(b *testing.B) {
			var s Scratch
			var dst []Minimizer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst, _ = s.ComputeInto(dst[:0], seq, 15, 10, nil)
			}
			benchSink = dst
		})
		b.Run("oracle/"+name, func(b *testing.B) {
			var dst []Minimizer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst, _ = computeOracle(dst[:0], seq, 15, 10)
			}
			benchSink = dst
		})
	}
}
