package align

import (
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/perf"
)

// Lanes is the modeled SIMD width of the striped Smith-Waterman kernels:
// eight 16-bit lanes, i.e. one 128-bit SSE register, matching the word
// configuration of the SSW library the paper's GSSW kernel builds on.
const Lanes = 8

// vec is one modeled SIMD register.
type vec [Lanes]int16

func (v *vec) maxWith(o *vec) {
	for l := 0; l < Lanes; l++ {
		if o[l] > v[l] {
			v[l] = o[l]
		}
	}
}

func (v *vec) addSat(o *vec) {
	for l := 0; l < Lanes; l++ {
		s := int32(v[l]) + int32(o[l])
		if s > 32767 {
			s = 32767
		}
		if s < 0 {
			s = 0 // Smith-Waterman zero floor (saturating unsigned semantics)
		}
		v[l] = int16(s)
	}
}

func (v *vec) subSatScalar(x int16) {
	for l := 0; l < Lanes; l++ {
		s := v[l] - x
		if s < 0 {
			s = 0
		}
		v[l] = s
	}
}

// shiftIn shifts lanes left by one (lane 0 receives fill). In the striped
// layout this moves values to the next query position across segments.
func (v vec) shiftIn(fill int16) vec {
	var out vec
	out[0] = fill
	copy(out[1:], v[:Lanes-1])
	return out
}

func (v *vec) anyGreater(o *vec) bool {
	for l := 0; l < Lanes; l++ {
		if v[l] > o[l] {
			return true
		}
	}
	return false
}

func (v *vec) horizontalMax() int16 {
	m := v[0]
	for l := 1; l < Lanes; l++ {
		if v[l] > m {
			m = v[l]
		}
	}
	return m
}

// Profile is a striped query profile (Farrar): for each reference base code,
// the per-segment substitution score vectors, biased to be non-negative.
type Profile struct {
	query  []byte
	codes  []byte
	segLen int
	bias   int16
	vecs   [5][]vec // indexed by reference base code
}

// NewProfile builds the striped query profile for the scoring scheme.
func NewProfile(query []byte, sc bio.Scoring) *Profile {
	m := len(query)
	segLen := (m + Lanes - 1) / Lanes
	if segLen == 0 {
		segLen = 1
	}
	p := &Profile{query: query, codes: bio.Encode2Bit(query), segLen: segLen, bias: int16(sc.Mismatch)}
	for code := 0; code < 5; code++ {
		p.vecs[code] = make([]vec, segLen)
		for seg := 0; seg < segLen; seg++ {
			for l := 0; l < Lanes; l++ {
				qpos := l*segLen + seg
				score := -int(sc.Mismatch)
				if qpos < m {
					if int(p.codes[qpos]) == code && code != bio.BaseN {
						score = sc.Match
					}
				}
				p.vecs[code][seg][l] = int16(score) + p.bias
			}
		}
	}
	return p
}

// sswState is the rolling striped state of one Smith-Waterman pass.
type sswState struct {
	pf          *Profile
	sc          bio.Scoring
	probe       *perf.Probe
	hLoad       []vec
	hStore      []vec
	e           []vec
	addrH       uint64 // synthetic addresses for the cache model
	addrE       uint64
	addrProfile uint64
}

func newSSWState(pf *Profile, sc bio.Scoring, probe *perf.Probe, as *perf.AddrSpace) *sswState {
	st := &sswState{
		pf:     pf,
		sc:     sc,
		probe:  probe,
		hLoad:  make([]vec, pf.segLen),
		hStore: make([]vec, pf.segLen),
		e:      make([]vec, pf.segLen),
	}
	if as != nil {
		bytes := pf.segLen * Lanes * 2
		st.addrH = as.Alloc(2 * bytes)
		st.addrE = as.Alloc(bytes)
		st.addrProfile = as.Alloc(5 * bytes)
	}
	return st
}

// column runs one Farrar column for reference base code refCode, returning
// the striped H column (hStore) and updating rolling state. maxOut receives
// the column's running maximum vector.
func (st *sswState) column(refCode byte, maxOut *vec) {
	pf := st.pf
	probe := st.probe
	gapO := int16(st.sc.GapOpen) // cost of the first base of a gap
	gapE := int16(st.sc.GapExtend)
	bias := pf.bias

	profile := pf.vecs[refCode]
	var vF vec
	vH := st.hLoad[pf.segLen-1].shiftIn(0)
	vecBytes := Lanes * 2

	for seg := 0; seg < pf.segLen; seg++ {
		// vH = saturating(vH + profile) - bias
		pv := profile[seg]
		probe.Load(uintptr(st.addrProfile)+uintptr((int(refCode)*pf.segLen+seg)*vecBytes), vecBytes)
		vH.addSat(&pv)
		for l := 0; l < Lanes; l++ {
			vH[l] -= bias
			if vH[l] < 0 {
				vH[l] = 0
			}
		}
		probe.Op(perf.Vector, 3) // add, sub, max-with-zero

		probe.Load(uintptr(st.addrE)+uintptr(seg*vecBytes), vecBytes)
		vH.maxWith(&st.e[seg])
		vH.maxWith(&vF)
		maxOut.maxWith(&vH)
		probe.Op(perf.Vector, 3)

		st.hStore[seg] = vH
		probe.Store(uintptr(st.addrH)+uintptr(seg*vecBytes), vecBytes)

		// E and F updates.
		vHGap := vH
		vHGap.subSatScalar(gapO)
		st.e[seg].subSatScalar(gapE)
		st.e[seg].maxWith(&vHGap)
		probe.Store(uintptr(st.addrE)+uintptr(seg*vecBytes), vecBytes)
		vF.subSatScalar(gapE)
		vF.maxWith(&vHGap)
		probe.Op(perf.Vector, 5)
		probe.Dep(2) // loop-carried F/H chain within the column

		probe.Load(uintptr(st.addrH)+uintptr((pf.segLen+seg)*vecBytes), vecBytes)
		vH = st.hLoad[seg]
	}

	// Lazy-F loop: propagate F across segment boundaries until it can no
	// longer improve any cell.
	vF = vF.shiftIn(0)
	for seg := 0; ; {
		var vTest vec
		for l := 0; l < Lanes; l++ {
			t := st.hStore[seg][l] - gapO
			if t < 0 {
				t = 0
			}
			vTest[l] = t
		}
		probe.Op(perf.Vector, 2)
		if !vF.anyGreater(&vTest) {
			probe.TakeBranch(0x51, false)
			break
		}
		probe.TakeBranch(0x51, true)
		st.hStore[seg].maxWith(&vF)
		probe.Store(uintptr(st.addrH)+uintptr(seg*vecBytes), vecBytes)
		vF.subSatScalar(gapE)
		probe.Op(perf.Vector, 2)
		seg++
		if seg >= pf.segLen {
			seg = 0
			vF = vF.shiftIn(0)
			probe.Op(perf.Vector, 1)
		}
	}

	st.hLoad, st.hStore = st.hStore, st.hLoad
	probe.Op(perf.Register, 2)
}

// StripedSW is Farrar's striped Smith-Waterman (the paper's SSW baseline,
// case study §6.1). It returns the best local score and end coordinates; as
// in the real SSW library's first pass, only the previous column is kept, so
// no traceback is produced.
func StripedSW(ref, query []byte, sc bio.Scoring, probe *perf.Probe) Result {
	if len(ref) == 0 || len(query) == 0 {
		return Result{}
	}
	pf := NewProfile(query, sc)
	st := newSSWState(pf, sc, probe, perf.NewAddrSpace())
	refCodes := bio.Encode2Bit(ref)

	best := Result{}
	for i, code := range refCodes {
		var colMax vec
		st.column(code, &colMax)
		probe.Op(perf.ScalarInt, 2) // loop bookkeeping
		if hm := int(colMax.horizontalMax()); hm > best.Score {
			probe.TakeBranch(0x52, true)
			best.Score = hm
			best.RefEnd = i + 1
			// Recover the query end from the striped layout.
			best.QueryEnd = stripedArgmax(st.hLoad, pf.segLen) + 1
		} else {
			probe.TakeBranch(0x52, false)
		}
	}
	return best
}

// stripedArgmax returns the query index holding the maximum in a striped
// column (hLoad holds the just-stored column after the swap).
func stripedArgmax(col []vec, segLen int) int {
	bestV, bestQ := int16(-1), 0
	for seg := 0; seg < segLen; seg++ {
		for l := 0; l < Lanes; l++ {
			if col[seg][l] > bestV {
				bestV = col[seg][l]
				bestQ = l*segLen + seg
			}
		}
	}
	return bestQ
}
