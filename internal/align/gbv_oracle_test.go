package align

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// profile reconstructs the full column score profile D[0..m] (D[0] = 0 in
// the search variant) by walking the delta bitvectors up from the bottom.
func (s *myersState) profile(m int, out []int) []int {
	if cap(out) < m+1 {
		out = make([]int, m+1)
	}
	out = out[:m+1]
	out[m] = s.score
	for j := m - 1; j >= 0; j-- {
		d := out[j+1]
		bit := uint64(1) << uint(j)
		if s.vp&bit != 0 {
			d--
		} else if s.vn&bit != 0 {
			d++
		}
		out[j] = d
	}
	return out
}

// fromProfile rebuilds a column state from a score profile whose adjacent
// deltas are in {-1, 0, +1}.
func fromProfile(p []int) myersState {
	m := len(p) - 1
	var s myersState
	for j := 0; j < m; j++ {
		switch p[j+1] - p[j] {
		case 1:
			s.vp |= 1 << uint(j)
		case -1:
			s.vn |= 1 << uint(j)
		}
	}
	s.score = p[m]
	return s
}

// gbvProfileOracle is GBV with the parent merge done on unpacked score
// profiles: every parent's exit column is expanded to m+1 ints, merged row by
// row into the entry profile, and packed back before stepping. It records
// the same probe events in the same order as the word-level merge, so the
// two must agree on the result and on every probe counter.
func gbvProfileOracle(g *graph.Graph, query []byte, probe *perf.Probe) (EditResult, error) {
	eq, err := NewPeq(query)
	if err != nil {
		return EditResult{}, err
	}
	m := len(query)
	n := g.NumNodes()
	if n == 0 {
		return EditResult{Distance: m}, nil
	}

	as := perf.NewAddrSpace()
	stateBase := as.Alloc(n * (m + 1) * 8)
	stateStride := uintptr((m + 1) * 8)

	fresh := make([]int, m+1) // the free-start profile D[j] = j
	for j := range fresh {
		fresh[j] = j
	}
	scratch := make([]int, m+1)
	merged := make([]int, m+1)
	inBuf := make([]int, (n+1)*(m+1))
	inSet := make([]bool, n+1)
	out := make([]myersState, n+1)
	hasOut := make([]bool, n+1)
	inQueue := make([]bool, n+1)

	var pq []gbvItem
	for id := 1; id <= n; id++ {
		gbvHeapPush(&pq, gbvItem{graph.NodeID(id), m})
		inQueue[id] = true
	}
	best := EditResult{Distance: m}

	for len(pq) > 0 {
		it := gbvHeapPop(&pq)
		id := it.node
		inQueue[id] = false
		probe.Op(perf.ScalarInt, 6)
		probe.Frontend(4)

		copy(merged, fresh)
		for _, p := range g.In(id) {
			if !hasOut[p] {
				probe.TakeBranch(0x80, false)
				continue
			}
			probe.TakeBranch(0x80, true)
			probe.Load(uintptr(stateBase)+uintptr(p-1)*stateStride, (m+1)*8)
			prof := out[p].profile(m, scratch)
			for j := 0; j <= m; j++ {
				if prof[j] < merged[j] {
					probe.TakeBranch(0x81, true)
					merged[j] = prof[j]
				} else {
					probe.TakeBranch(0x81, false)
				}
			}
			probe.Op(perf.ScalarInt, m+1)
		}

		in := inBuf[int(id)*(m+1) : int(id+1)*(m+1)]
		if inSet[id] && slices.Equal(in, merged) {
			probe.TakeBranch(0x82, false)
			continue
		}
		probe.TakeBranch(0x82, true)
		inSet[id] = true
		copy(in, merged)

		st := fromProfile(merged)
		for i, b := range g.Seq(id) {
			st.step(eq[bio.Code(b)], m, probe)
			rowAddr := uintptr(stateBase) + uintptr(id-1)*stateStride + uintptr((i*16)%int(stateStride))
			probe.Load(rowAddr, 16)
			probe.Store(rowAddr, 16)
			if st.score < best.Distance {
				probe.TakeBranch(0x83, true)
				best = EditResult{Distance: st.score, EndNode: id}
			} else {
				probe.TakeBranch(0x83, false)
			}
		}

		changed := !hasOut[id] || st != out[id]
		probe.TakeBranch(0x84, changed)
		if !changed {
			continue
		}
		out[id] = st
		hasOut[id] = true
		probe.Store(uintptr(stateBase)+uintptr(id-1)*stateStride, (m+1)*8)

		for _, c := range g.Out(id) {
			if !inQueue[c] {
				gbvHeapPush(&pq, gbvItem{c, st.score})
				inQueue[c] = true
				probe.Op(perf.ScalarInt, 8)
			}
		}
	}

	if best.Distance == m {
		best.EndNode = 0
	}
	return best, nil
}

// probeCounts is every counter a probe accumulates, including the cache
// simulator's per-level misses, as one comparable value.
type probeCounts struct {
	counters               perf.Probe // simulators detached
	l1Miss, l2Miss, l3Miss uint64
}

func countsOf(p *perf.Probe) probeCounts {
	c := probeCounts{counters: *p}
	c.counters.Cache, c.counters.Branch = nil, nil
	if p.Cache != nil {
		c.l1Miss, c.l2Miss, c.l3Miss = p.Cache.L1Misses, p.Cache.L2Misses, p.Cache.L3Misses
	}
	return c
}

// checkGBVAgainstProfileOracle aligns query against g with GBV and with the
// profile-merge oracle, unprobed and then each with a fresh simulating
// probe, and fails on any difference in the result or the probe counters.
func checkGBVAgainstProfileOracle(t *testing.T, g *graph.Graph, query []byte) {
	t.Helper()
	want, werr := gbvProfileOracle(g, query, nil)
	got, gerr := GBV(g, query, nil)
	if (werr != nil) != (gerr != nil) || got != want {
		t.Fatalf("|q|=%d unprobed: GBV (%+v, %v) != oracle (%+v, %v)", len(query), got, gerr, want, werr)
	}
	wp, gp := perf.NewProbe(), perf.NewProbe()
	want, _ = gbvProfileOracle(g, query, wp)
	got, _ = GBV(g, query, gp)
	if got != want {
		t.Fatalf("|q|=%d probed: GBV %+v != oracle %+v", len(query), got, want)
	}
	if gc, wc := countsOf(gp), countsOf(wp); gc != wc {
		t.Fatalf("|q|=%d: GBV probe %+v != oracle probe %+v", len(query), gc, wc)
	}
}

func TestGBVMatchesProfileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		g := randomGraph(rng, true)
		checkGBVAgainstProfileOracle(t, g, randSeq(rng, 1+rng.Intn(MaxMyersQuery)))
	}
}

// FuzzGBVMatchesProfileOracle checks GBV against the profile-merge oracle on
// a random cyclic graph drawn from seed and the payload as the query (cut to
// 64 bp; any byte is a base code, non-ACGT ones mismatch everything).
func FuzzGBVMatchesProfileOracle(f *testing.F) {
	f.Add(int64(1), []byte("ACGTACGT"))
	f.Add(int64(7), []byte("A"))
	f.Add(int64(42), []byte("ACGTNNACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTAC"))
	f.Add(int64(-3), []byte("TTTTTTTTGGGGCCCCAAAA"))
	f.Fuzz(func(t *testing.T, seed int64, q []byte) {
		if len(q) > MaxMyersQuery {
			q = q[:MaxMyersQuery]
		}
		g := randomGraph(rand.New(rand.NewSource(seed)), true)
		checkGBVAgainstProfileOracle(t, g, q)
	})
}

func TestMyersProfileRoundTrip(t *testing.T) {
	f := func(raw []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(64)
		// Build a valid profile: D[0]=0, adjacent deltas in {-1,0,1}.
		p := make([]int, m+1)
		for j := 1; j <= m; j++ {
			p[j] = p[j-1] + rng.Intn(3) - 1
		}
		st := fromProfile(p)
		got := st.profile(m, nil)
		for j := range p {
			if got[j] != p[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
