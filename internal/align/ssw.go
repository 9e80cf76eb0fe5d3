package align

import (
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/perf"
)

// Lanes is the modeled SIMD width of the striped Smith-Waterman kernels:
// eight 16-bit lanes, i.e. one 128-bit SSE register, matching the word
// configuration of the SSW library the paper's GSSW kernel builds on.
const Lanes = 8

// vec is one modeled SIMD register: the eight 16-bit lanes packed four to a
// word, lane l in bits 16*(l%4) of word l/4, so each operation below works on
// two words (SWAR) rather than lane by lane. Every lane value stays in
// [0, 32767] — the profile is biased to be non-negative and every operation
// floors at 0 — so each lane's top bit is free to serve as the guard bit that
// keeps a borrow or carry from crossing into the next lane.
type vec [2]uint64

const (
	laneTop = 0x8000800080008000 // each lane's guard bit
	laneOne = 0x0001000100010001 // 1 in each lane
)

// lane returns lane l's value.
func (v *vec) lane(l int) int16 { return int16(v[l>>2] >> (16 * (l & 3))) }

// setLane sets lane l to x, which must lie in [0, 32767].
func (v *vec) setLane(l int, x int16) {
	sh := 16 * (l & 3)
	v[l>>2] = v[l>>2]&^(0xFFFF<<sh) | uint64(uint16(x))<<sh
}

// geGuard has each lane's guard bit set where a >= b: the guard bit of
// (a | guard) - b survives exactly where the lane did not borrow.
func geGuard(a, b uint64) uint64 { return ((a | laneTop) - b) & laneTop }

// lowMask widens each guard bit set in g into its lane's low 15 bits, which
// hold the whole lane value.
func lowMask(g uint64) uint64 { return g - g>>15 }

func maxWord(a, b uint64) uint64 {
	m := lowMask(geGuard(a, b))
	return a&m | b&^m
}

// addSatWord adds lane-wise and clamps at 32767: a lane sum sets its guard
// bit exactly when it exceeds 32767.
func addSatWord(a, b uint64) uint64 {
	s := a + b
	return s&^laneTop | lowMask(s&laneTop)
}

// subSatWord subtracts lane-wise and floors at 0.
func subSatWord(a, b uint64) uint64 {
	d := (a | laneTop) - b
	return d & lowMask(d&laneTop)
}

func (v *vec) maxWith(o *vec) {
	v[0], v[1] = maxWord(v[0], o[0]), maxWord(v[1], o[1])
}

func (v *vec) addSat(o *vec) {
	v[0], v[1] = addSatWord(v[0], o[0]), addSatWord(v[1], o[1])
}

// subSatScalar subtracts x, which must lie in [0, 32767], from every lane,
// flooring at 0 (Smith-Waterman's zero floor).
func (v *vec) subSatScalar(x int16) {
	b := uint64(uint16(x)) * laneOne
	v[0], v[1] = subSatWord(v[0], b), subSatWord(v[1], b)
}

// shiftIn shifts lanes left by one (lane 0 receives fill). In the striped
// layout this moves values to the next query position across segments.
func (v vec) shiftIn(fill int16) vec {
	return vec{v[0]<<16 | uint64(uint16(fill)), v[1]<<16 | v[0]>>48}
}

// anyGreater reports whether some lane of v exceeds o's, i.e. whether o >= v
// fails in some lane.
func (v *vec) anyGreater(o *vec) bool {
	return geGuard(o[0], v[0])&geGuard(o[1], v[1]) != laneTop
}

func (v *vec) horizontalMax() int16 {
	m := maxWord(v[0], v[1])
	m = maxWord(m, m>>32)
	m = maxWord(m, m>>16)
	return int16(uint16(m))
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
	p := &Profile{codes: make([]byte, 0, len(query))}
	p.reset(query, sc)
	return p
}

// reset rebuilds p for query in place, growing its storage only when too
// small, so a reused profile allocates nothing.
func (p *Profile) reset(query []byte, sc bio.Scoring) {
	m := len(query)
	p.query, p.codes, p.bias = query, bio.AppendCodes(p.codes[:0], query), int16(sc.Mismatch)
	p.segLen = max((m+Lanes-1)/Lanes, 1)
	for code := range p.vecs {
		p.vecs[code] = ensureVecs(p.vecs[code], p.segLen)
		for seg := 0; seg < p.segLen; seg++ {
			for l := 0; l < Lanes; l++ {
				qpos := l*p.segLen + seg
				score := -int(sc.Mismatch)
				if qpos < m {
					if int(p.codes[qpos]) == code && code != bio.BaseN {
						score = sc.Match
					}
				}
				p.vecs[code][seg].setLane(l, int16(score)+p.bias)
			}
		}
	}
}

// ensureVecs returns buf with length n (grow-only; contents unspecified).
func ensureVecs(buf []vec, n int) []vec {
	if cap(buf) < n {
		return make([]vec, n)
	}
	return buf[:n]
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
	st.place(as)
	return st
}

// place gives the state's buffers their synthetic cache-model addresses.
func (st *sswState) place(as *perf.AddrSpace) {
	bytes := st.pf.segLen * Lanes * 2
	st.addrH = as.Alloc(2 * bytes)
	st.addrE = as.Alloc(bytes)
	st.addrProfile = as.Alloc(5 * bytes)
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
		vH.subSatScalar(bias)
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
		vTest := st.hStore[seg]
		vTest.subSatScalar(gapO)
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
			if v := col[seg].lane(l); v > bestV {
				bestV = v
				bestQ = l*segLen + seg
			}
		}
	}
	return bestQ
}
