// Package bio provides the basic sequence substrate shared by every other
// package in PangenomicsBench-Go: the DNA alphabet, 2-bit encodings, FASTA
// and FASTQ I/O, alignment scoring schemes, and CIGAR strings.
package bio

import "fmt"

// Bases in canonical order. Code 0..3 is the 2-bit encoding used throughout
// the suite; 4 encodes N (unknown).
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
	BaseN = 4
)

// Alphabet is the canonical uppercase DNA alphabet indexed by 2-bit code.
var Alphabet = [5]byte{'A', 'C', 'G', 'T', 'N'}

// codeOf maps an ASCII byte to its 2-bit code, or BaseN for anything that is
// not a (case-insensitive) DNA base.
var codeOf [256]byte

func init() {
	for i := range codeOf {
		codeOf[i] = BaseN
	}
	set := func(b byte, code byte) {
		codeOf[b] = code
		codeOf[b|0x20] = code // lowercase
	}
	set('A', BaseA)
	set('C', BaseC)
	set('G', BaseG)
	set('T', BaseT)
	set('U', BaseT)
	set('N', BaseN)
}

// Code returns the 2-bit code (0..3) of base b, or BaseN (4) if b is not a
// DNA base.
func Code(b byte) byte { return codeOf[b] }

// Base returns the uppercase ASCII base for a 2-bit code.
func Base(code byte) byte {
	if code > BaseN {
		return 'N'
	}
	return Alphabet[code]
}

// IsDNA reports whether every byte of seq is an A/C/G/T/N letter (any case).
func IsDNA(seq []byte) bool {
	for _, b := range seq {
		switch b {
		case 'A', 'C', 'G', 'T', 'N', 'a', 'c', 'g', 't', 'n', 'U', 'u':
		default:
			return false
		}
	}
	return true
}

// Validate returns an error describing the first non-DNA byte in seq.
func Validate(seq []byte) error {
	for i, b := range seq {
		if codeOf[b] == BaseN && b != 'N' && b != 'n' {
			return fmt.Errorf("bio: invalid base %q at position %d", b, i)
		}
	}
	return nil
}

// Encode2Bit converts an ASCII sequence to its 2-bit codes (one byte per
// base, values 0..4).
func Encode2Bit(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[i] = codeOf[b]
	}
	return out
}

// GC returns the fraction of G/C bases in seq (0 if seq is empty).
func GC(seq []byte) float64 {
	if len(seq) == 0 {
		return 0
	}
	n := 0
	for _, b := range seq {
		c := codeOf[b]
		if c == BaseC || c == BaseG {
			n++
		}
	}
	return float64(n) / float64(len(seq))
}

// AppendCodes appends the 2-bit codes of seq to dst and returns the extended
// slice — the allocation-free variant of Encode2Bit for reusable kernel
// workspaces (append into a caller-owned buffer, SNIPPETS Compact idiom).
func AppendCodes(dst, seq []byte) []byte {
	for _, b := range seq {
		dst = append(dst, codeOf[b])
	}
	return dst
}
