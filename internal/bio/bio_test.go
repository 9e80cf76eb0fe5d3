package bio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodeBase(t *testing.T) {
	cases := map[byte]byte{'A': BaseA, 'c': BaseC, 'G': BaseG, 't': BaseT, 'N': BaseN, 'X': BaseN, 'u': BaseT}
	for b, want := range cases {
		if got := Code(b); got != want {
			t.Errorf("Code(%q) = %d, want %d", b, got, want)
		}
	}
	for c := byte(0); c < 4; c++ {
		if Code(Base(c)) != c {
			t.Errorf("Code(Base(%d)) != %d", c, c)
		}
	}
	if Base(9) != 'N' {
		t.Error("out-of-range code must decode to N")
	}
}

func TestReverseComplement(t *testing.T) {
	got := ReverseComplement([]byte("ACGTN"))
	if string(got) != "NACGT" {
		t.Fatalf("ReverseComplement = %q", got)
	}
	in := []byte("ACGTT")
	ReverseComplementInPlace(in)
	if string(in) != "AACGT" {
		t.Fatalf("in place = %q", in)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		seq := randomizeToDNA(raw)
		return bytes.Equal(ReverseComplement(ReverseComplement(seq)), seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		seq := randomizeToDNA(raw)
		codes := Encode2Bit(seq)
		for i, c := range codes {
			if Base(c) != seq[i] {
				return false
			}
		}
		return len(codes) == len(seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]byte("ACGTNacgtn")); err != nil {
		t.Fatalf("valid DNA rejected: %v", err)
	}
	if err := Validate([]byte("ACGQ")); err == nil {
		t.Fatal("invalid base accepted")
	}
}

func TestGC(t *testing.T) {
	if got := GC([]byte("GGCC")); got != 1 {
		t.Fatalf("GC = %v", got)
	}
	if got := GC([]byte("AATT")); got != 0 {
		t.Fatalf("GC = %v", got)
	}
	if got := GC(nil); got != 0 {
		t.Fatalf("GC(nil) = %v", got)
	}
}

func TestPackedRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		seq := bytes.ToUpper(randomizeToDNAWithN(raw))
		p := Pack(seq)
		if p.Len() != len(seq) {
			return false
		}
		return bytes.Equal(p.Unpack(), seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackedSlice(t *testing.T) {
	p := Pack([]byte("ACGTACGTN"))
	if got := string(p.Slice(2, 6)); got != "GTAC" {
		t.Fatalf("Slice = %q", got)
	}
	if got := p.At(8); got != 'N' {
		t.Fatalf("At(8) = %q, want N", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice must panic")
		}
	}()
	p.Slice(5, 100)
}

func TestFastaRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "chr1", Desc: "test contig", Seq: []byte("ACGTACGTACGTACGT")},
		{Name: "chr2", Seq: []byte("TTTT")},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs, 7); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "chr1" || got[0].Desc != "test contig" ||
		string(got[0].Seq) != "ACGTACGTACGTACGT" || string(got[1].Seq) != "TTTT" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestFastaErrors(t *testing.T) {
	cases := []string{
		"ACGT\n",            // data before header
		">\nACGT\n",         // empty header
		">x\nHELLO WORLD\n", // non-DNA
	}
	for _, in := range cases {
		if _, err := ReadFasta(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFasta(%q) accepted invalid input", in)
		}
	}
}

func TestFastqRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "r1", Seq: []byte("ACGT"), Qual: []byte("IIII")},
		{Name: "r2", Desc: "mate", Seq: []byte("GG"), Qual: []byte("#!")},
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "r1" || string(got[1].Qual) != "#!" || got[1].Desc != "mate" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestFastqErrors(t *testing.T) {
	cases := []string{
		"@x\nACGT\n+\nII\n", // qual length mismatch
		"@x\nACGT\n",        // truncated
		"x\nACGT\n+\nIIII\n",
		"@x\nACGT\nIIII\nIIII\n", // missing +
	}
	for _, in := range cases {
		if _, err := ReadFastq(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFastq(%q) accepted invalid input", in)
		}
	}
}

func TestScoring(t *testing.T) {
	s := DefaultScoring
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Substitution('A', 'a') != s.Match {
		t.Fatal("case-insensitive match failed")
	}
	if s.Substitution('A', 'C') != -s.Mismatch {
		t.Fatal("mismatch score wrong")
	}
	if s.Substitution('N', 'N') != -s.Mismatch {
		t.Fatal("N must never match")
	}
	bad := Scoring{Match: 0}
	if bad.Validate() == nil {
		t.Fatal("zero match bonus accepted")
	}
	m := s.Matrix()
	if m[0] != int8(s.Match) || m[1] != int8(-s.Mismatch) || m[4*5+4] != int8(-s.Mismatch) {
		t.Fatal("matrix layout wrong")
	}
}

func TestCigar(t *testing.T) {
	var c Cigar
	c = c.Append(CigarEq, 5)
	c = c.Append(CigarEq, 3) // merges
	c = c.Append(CigarX, 1)
	c = c.Append(CigarDel, 2)
	c = c.Append(CigarIns, 4)
	c = c.Append(CigarMatch, 0) // no-op
	if got := c.String(); got != "8=1X2D4I" {
		t.Fatalf("String = %q", got)
	}
	if c.QueryLen() != 13 || c.RefLen() != 11 {
		t.Fatalf("lens = %d/%d", c.QueryLen(), c.RefLen())
	}
	if c.EditDistance() != 7 {
		t.Fatalf("edit distance = %d", c.EditDistance())
	}
}

func TestCigarReverse(t *testing.T) {
	c := Cigar{{CigarEq, 1}, {CigarX, 2}, {CigarDel, 3}}
	c.Reverse()
	if c.String() != "3D2X1=" {
		t.Fatalf("Reverse = %q", c)
	}
}

// randomizeToDNA maps arbitrary bytes onto ACGT.
func randomizeToDNA(raw []byte) []byte {
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = Base(b & 3)
	}
	return out
}

func randomizeToDNAWithN(raw []byte) []byte {
	out := make([]byte, len(raw))
	for i, b := range raw {
		if b%17 == 0 {
			out[i] = 'N'
		} else {
			out[i] = Base(b & 3)
		}
	}
	return out
}

func BenchmarkReverseComplement(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := make([]byte, 10000)
	for i := range seq {
		seq[i] = Base(byte(rng.Intn(4)))
	}
	b.SetBytes(int64(len(seq)))
	for i := 0; i < b.N; i++ {
		ReverseComplementInPlace(seq)
	}
}
