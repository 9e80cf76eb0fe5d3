package fmindex

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

// bruteOccurrences finds all occurrences of pat in text.
func bruteOccurrences(text, pat []byte) []int {
	var out []int
	for i := 0; i+len(pat) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pat)], pat) {
			out = append(out, i)
		}
	}
	return out
}

func TestSuffixArraySorted(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		text := make([]int32, len(raw))
		for i, b := range raw {
			text[i] = int32(b % 7)
		}
		sa := SuffixArrayInts(text)
		if len(sa) != len(text) {
			return false
		}
		// Every suffix must be lexicographically <= the next.
		less := func(a, b int32) bool {
			for int(a) < len(text) && int(b) < len(text) {
				if text[a] != text[b] {
					return text[a] < text[b]
				}
				a++
				b++
			}
			return int(a) == len(text) && int(b) < len(text)
		}
		seen := make([]bool, len(sa))
		for i, p := range sa {
			if seen[p] {
				return false // not a permutation
			}
			seen[p] = true
			if i > 0 && less(sa[i], sa[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	text := randDNA(rng, 2000)
	idx, err := New(text)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		plen := 1 + rng.Intn(12)
		var pat []byte
		if trial%2 == 0 {
			start := rng.Intn(len(text) - plen)
			pat = text[start : start+plen]
		} else {
			pat = randDNA(rng, plen)
		}
		want := len(bruteOccurrences(text, pat))
		got, _ := idx.Count(pat, nil)
		if got != want {
			t.Fatalf("Count(%s) = %d, want %d", pat, got, want)
		}
	}
}

func TestPatternWithN(t *testing.T) {
	idx, err := New([]byte("ACGTACGTNACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := idx.Count([]byte("GTN"), nil); n != 0 {
		t.Fatal("patterns containing N must not match")
	}
	if n, _ := idx.Count([]byte("ACGT"), nil); n != 3 {
		t.Fatalf("ACGT count = %d, want 3", n)
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty text must be rejected")
	}
	idx, _ := New([]byte("ACGT"))
	if n, _ := idx.Count(nil, nil); n != 0 {
		t.Fatal("empty pattern must count 0")
	}
	if idx.Len() != 4 {
		t.Fatalf("Len = %d", idx.Len())
	}
}
