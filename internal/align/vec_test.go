package align

import (
	"encoding/binary"
	"testing"
)

// laneVec is the reference register: the eight lanes one int16 each, with
// every operation a per-lane loop. The SWAR vec must agree with it on every
// input whose lanes lie in [0, 32767].
type laneVec [Lanes]int16

func (v *laneVec) maxWith(o *laneVec) {
	for l := 0; l < Lanes; l++ {
		if o[l] > v[l] {
			v[l] = o[l]
		}
	}
}

func (v *laneVec) addSat(o *laneVec) {
	for l := 0; l < Lanes; l++ {
		s := int32(v[l]) + int32(o[l])
		if s > 32767 {
			s = 32767
		}
		if s < 0 {
			s = 0
		}
		v[l] = int16(s)
	}
}

func (v *laneVec) subSatScalar(x int16) {
	for l := 0; l < Lanes; l++ {
		s := v[l] - x
		if s < 0 {
			s = 0
		}
		v[l] = s
	}
}

func (v laneVec) shiftIn(fill int16) laneVec {
	var out laneVec
	out[0] = fill
	copy(out[1:], v[:Lanes-1])
	return out
}

func (v *laneVec) anyGreater(o *laneVec) bool {
	for l := 0; l < Lanes; l++ {
		if v[l] > o[l] {
			return true
		}
	}
	return false
}

func (v *laneVec) horizontalMax() int16 {
	m := v[0]
	for l := 1; l < Lanes; l++ {
		if v[l] > m {
			m = v[l]
		}
	}
	return m
}

func packLanes(lv laneVec) vec {
	var v vec
	for l, x := range lv {
		v.setLane(l, x)
	}
	return v
}

func unpackLanes(v vec) laneVec {
	var lv laneVec
	for l := range lv {
		lv[l] = v.lane(l)
	}
	return lv
}

// checkVecOps runs every vec operation on (a, b, x) and its per-lane
// reference, failing on the first disagreement.
func checkVecOps(t *testing.T, a, b laneVec, x int16) {
	t.Helper()
	va, vb := packLanes(a), packLanes(b)
	if got := unpackLanes(va); got != a {
		t.Fatalf("lane round trip: %v -> %v", a, got)
	}
	check := func(op string, got vec, want laneVec) {
		t.Helper()
		if unpackLanes(got) != want {
			t.Fatalf("%s(%v, %v, %d): SWAR %v, lanes %v", op, a, b, x, unpackLanes(got), want)
		}
	}

	gm, wm := va, a
	gm.maxWith(&vb)
	wm.maxWith(&b)
	check("maxWith", gm, wm)

	ga, wa := va, a
	ga.addSat(&vb)
	wa.addSat(&b)
	check("addSat", ga, wa)

	gsub, wsub := va, a
	gsub.subSatScalar(x)
	wsub.subSatScalar(x)
	check("subSatScalar", gsub, wsub)

	check("shiftIn", va.shiftIn(x), a.shiftIn(x))

	if got, want := va.anyGreater(&vb), a.anyGreater(&b); got != want {
		t.Fatalf("anyGreater(%v, %v): SWAR %v, lanes %v", a, b, got, want)
	}
	if got, want := va.horizontalMax(), a.horizontalMax(); got != want {
		t.Fatalf("horizontalMax(%v): SWAR %d, lanes %d", a, got, want)
	}
}

// TestVecOpsMatchLanes covers the edges of the lane domain: 0, 32767, sums
// that saturate, subtracting more than a lane holds, and one lane differing
// from its neighbours (a carry or borrow leaking across lanes shows there).
func TestVecOpsMatchLanes(t *testing.T) {
	const top = 32767
	fill := func(x int16) laneVec {
		var v laneVec
		for l := range v {
			v[l] = x
		}
		return v
	}
	one := func(l int, x, rest int16) laneVec {
		v := fill(rest)
		v[l] = x
		return v
	}
	vecs := []laneVec{
		fill(0), fill(1), fill(top), fill(top - 1), fill(16384),
		{0, top, 0, top, 0, top, 0, top},
		{top, 0, top, 0, top, 0, top, 0},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{top, top - 1, 16384, 16383, 2, 1, 0, top},
	}
	for l := 0; l < Lanes; l++ {
		vecs = append(vecs, one(l, top, 0), one(l, 0, top), one(l, 1, 0), one(l, 0, 1))
	}
	scalars := []int16{0, 1, 5, 16383, 16384, top - 1, top}
	for _, a := range vecs {
		for _, b := range vecs {
			for _, x := range scalars {
				checkVecOps(t, a, b, x)
			}
		}
	}
}

// FuzzVecOpsMatchLanes checks the SWAR operations against the per-lane
// reference on arbitrary lanes in [0, 32767]: the payload is read as little-
// endian uint16s, two registers and one scalar, each masked to 15 bits.
func FuzzVecOpsMatchLanes(f *testing.F) {
	f.Add(make([]byte, 34))
	f.Add([]byte{0xff, 0x7f, 0xff, 0x7f, 0x01, 0x00, 0x00, 0x80, 0xfe, 0x7f})
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTAC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		word := func(i int) int16 {
			if 2*i+1 >= len(data) {
				return 0
			}
			return int16(binary.LittleEndian.Uint16(data[2*i:]) & 0x7FFF)
		}
		var a, b laneVec
		for l := 0; l < Lanes; l++ {
			a[l], b[l] = word(l), word(Lanes+l)
		}
		checkVecOps(t, a, b, word(2*Lanes))
	})
}
