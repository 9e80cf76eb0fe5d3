package perf

import (
	"math/rand"
	"testing"
)

// ageLevel is the reference cache level: tags, valid bits and a last-use
// clock per way, with the victim chosen by scanning for an empty way or the
// oldest stamp. The recency-ordered cacheLevel must match it on every access.
type ageLevel struct {
	ways    int
	setMask uint64
	tags    []uint64
	age     []uint64
	valid   []bool
	clock   uint64
}

func newAgeLevel(g CacheGeometry) *ageLevel {
	sets := g.SizeBytes / (g.LineBytes * g.Ways)
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &^= sets & -sets
	}
	return &ageLevel{
		ways:    g.Ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*g.Ways),
		age:     make([]uint64, sets*g.Ways),
		valid:   make([]bool, sets*g.Ways),
	}
}

func (c *ageLevel) access(line uint64) bool {
	c.clock++
	base := int(line&c.setMask) * c.ways
	victim, victimAge := base, c.age[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.age[i] = c.clock
			return true
		}
		if !c.valid[i] {
			victim, victimAge = i, 0
		} else if c.age[i] < victimAge {
			victim, victimAge = i, c.age[i]
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.age[victim] = c.clock
	return false
}

// ageSim is CacheSim.Access over reference levels.
type ageSim struct {
	l1, l2, l3           *ageLevel
	accesses, m1, m2, m3 uint64
}

func (s *ageSim) access(addr uint64, size int) {
	if size < 1 {
		size = 1
	}
	for line := addr >> 6; line <= (addr+uint64(size)-1)>>6; line++ {
		s.accesses++
		switch {
		case s.l1.access(line):
		case s.l2.access(line):
			s.m1++
		case s.l3.access(line):
			s.m2++
		default:
			s.m3++
		}
	}
}

// smallGeometry maps two bytes to a level of 1–8 sets (before rounding down
// to a power of two) and 1–20 ways.
func smallGeometry(setsByte, waysByte byte) CacheGeometry {
	ways := 1 + int(waysByte)%20
	sets := 1 + int(setsByte)%8
	return CacheGeometry{SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64}
}

func checkLevelAgainstAge(t *testing.T, g CacheGeometry, lines []uint64) {
	t.Helper()
	got, want := newCacheLevel(g), newAgeLevel(g)
	for i, line := range lines {
		if h, w := got.access(line), want.access(line); h != w {
			t.Fatalf("geometry %+v, access %d (line %d): hit=%v, reference LRU hit=%v", g, i, line, h, w)
		}
	}
}

func TestCacheLevelMatchesAgeLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 400; trial++ {
		g := smallGeometry(byte(rng.Intn(256)), byte(rng.Intn(256)))
		// Draw lines from a pool a little larger than the level, so the
		// stream mixes hits, fills of empty ways and evictions.
		pool := 1 + rng.Intn(2*g.SizeBytes/64+2)
		lines := make([]uint64, 2000)
		for i := range lines {
			lines[i] = uint64(rng.Intn(pool))
		}
		checkLevelAgainstAge(t, g, lines)
	}

	// Through CacheSim.Access on Machine B: sizes up to 130 bytes straddle
	// one or two line boundaries, and the addresses mix a hot L1-sized
	// region, an L2-sized one, and 64 lines 2 MiB apart at each of 64
	// offsets, which share L2 and L3 sets and so force evictions there.
	sim := NewCacheSim(MachineB)
	ref := &ageSim{l1: newAgeLevel(MachineB.L1), l2: newAgeLevel(MachineB.L2), l3: newAgeLevel(MachineB.L3)}
	for i := 0; i < 100000; i++ {
		var addr uint64
		switch rng.Intn(3) {
		case 0:
			addr = uint64(rng.Intn(32 << 10))
		case 1:
			addr = uint64(rng.Intn(1 << 20))
		default:
			addr = uint64(rng.Intn(64))<<21 | uint64(rng.Intn(64))<<6 | uint64(rng.Intn(64))
		}
		size := 1 + rng.Intn(130)
		sim.Access(addr, size)
		ref.access(addr, size)
		if sim.Accesses != ref.accesses || sim.L1Misses != ref.m1 || sim.L2Misses != ref.m2 || sim.L3Misses != ref.m3 {
			t.Fatalf("access %d (addr %d, size %d): got %d/%d/%d/%d, reference %d/%d/%d/%d", i, addr, size,
				sim.Accesses, sim.L1Misses, sim.L2Misses, sim.L3Misses, ref.accesses, ref.m1, ref.m2, ref.m3)
		}
	}
	if sim.L1Misses == 0 || sim.L2Misses == 0 || sim.L3Misses == 0 {
		t.Fatalf("stream exercised too little of the hierarchy: %d/%d/%d", sim.L1Misses, sim.L2Misses, sim.L3Misses)
	}
}

// FuzzCacheLevelMatchesAgeLRU: the first two bytes pick a small geometry,
// every later byte is one line address.
func FuzzCacheLevelMatchesAgeLRU(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{3, 11, 0, 4, 8, 12, 16, 20, 0, 4, 24, 28, 0})
	f.Add([]byte{7, 19, 9, 9, 9, 200, 17, 9, 255, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		lines := make([]uint64, len(data)-2)
		for i, b := range data[2:] {
			lines[i] = uint64(b)
		}
		checkLevelAgainstAge(t, smallGeometry(data[0], data[1]), lines)
	})
}
