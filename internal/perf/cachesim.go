package perf

// CacheGeometry describes one cache level.
type CacheGeometry struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Hierarchy is a three-level data-cache configuration.
type Hierarchy struct {
	Name       string
	L1, L2, L3 CacheGeometry
}

// Machine configurations from Table 5 of the paper.
var (
	// MachineA is the Xeon E5-2697 v3 (L1d 32K/8w, L2 256K/8w, L3 35M/~20w).
	MachineA = Hierarchy{
		Name: "Machine A (Xeon E5-2697 v3)",
		L1:   CacheGeometry{32 << 10, 8, 64},
		L2:   CacheGeometry{256 << 10, 8, 64},
		L3:   CacheGeometry{35 << 20, 20, 64},
	}
	// MachineB is the Xeon Gold 6326 (L1d 48K/12w, L2 1.25M/20w, L3 24M/12w),
	// the machine used for the paper's microarchitectural analyses.
	MachineB = Hierarchy{
		Name: "Machine B (Xeon Gold 6326)",
		L1:   CacheGeometry{48 << 10, 12, 64},
		L2:   CacheGeometry{1280 << 10, 20, 64},
		L3:   CacheGeometry{24 << 20, 12, 64},
	}
)

// cacheLevel is one set-associative LRU cache.
type cacheLevel struct {
	geom     CacheGeometry
	sets     int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets × ways
	age      []uint64 // LRU clocks, same layout
	valid    []bool
	clock    uint64

	Accesses uint64
	Misses   uint64
}

func newCacheLevel(g CacheGeometry) *cacheLevel {
	sets := g.SizeBytes / (g.LineBytes * g.Ways)
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two so indexing is a mask.
	for sets&(sets-1) != 0 {
		sets &^= sets & -sets
	}
	lineBits := uint(0)
	for 1<<lineBits < g.LineBytes {
		lineBits++
	}
	return &cacheLevel{
		geom:     g,
		sets:     sets,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*g.Ways),
		age:      make([]uint64, sets*g.Ways),
		valid:    make([]bool, sets*g.Ways),
	}
}

// access looks up one line address; returns true on hit. On miss the line is
// installed with LRU replacement.
func (c *cacheLevel) access(lineAddr uint64) bool {
	c.Accesses++
	c.clock++
	set := int(lineAddr & c.setMask)
	base := set * c.geom.Ways
	victim, victimAge := base, c.age[base]
	for w := 0; w < c.geom.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == lineAddr {
			c.age[i] = c.clock
			return true
		}
		if !c.valid[i] {
			victim, victimAge = i, 0
		} else if c.age[i] < victimAge {
			victim, victimAge = i, c.age[i]
		}
	}
	c.Misses++
	c.tags[victim] = lineAddr
	c.valid[victim] = true
	c.age[victim] = c.clock
	return false
}

func (c *cacheLevel) reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.age[i] = 0
	}
	c.clock, c.Accesses, c.Misses = 0, 0, 0
}

// CacheSim simulates an inclusive three-level data-cache hierarchy and counts
// exclusive misses per level, matching Fig. 7's convention: an access that
// misses L1 but hits L2 counts only as an L2 "miss-filled" event, reported as
// an L1 miss that did NOT also count at L2.
type CacheSim struct {
	Hier       Hierarchy
	l1, l2, l3 *cacheLevel

	Accesses uint64
	// Exclusive miss counters (Fig. 7 semantics).
	L1Misses uint64 // missed L1, hit L2
	L2Misses uint64 // missed L2, hit L3
	L3Misses uint64 // missed everywhere (DRAM)
}

// NewCacheSim builds a simulator with the given hierarchy.
func NewCacheSim(h Hierarchy) *CacheSim {
	return &CacheSim{
		Hier: h,
		l1:   newCacheLevel(h.L1),
		l2:   newCacheLevel(h.L2),
		l3:   newCacheLevel(h.L3),
	}
}

// Access runs one data access of size bytes at addr through the hierarchy.
// Accesses spanning a line boundary touch both lines.
func (s *CacheSim) Access(addr uint64, size int, _ bool) {
	if size < 1 {
		size = 1
	}
	first := addr >> s.l1.lineBits
	last := (addr + uint64(size) - 1) >> s.l1.lineBits
	for line := first; line <= last; line++ {
		s.Accesses++
		if s.l1.access(line) {
			continue
		}
		if s.l2.access(line) {
			s.L1Misses++
			continue
		}
		if s.l3.access(line) {
			s.L2Misses++
			continue
		}
		s.L3Misses++
	}
}

// MPKI returns exclusive misses per kilo-instruction for each level given
// the total dynamic instruction count.
func (s *CacheSim) MPKI(instructions uint64) (l1, l2, l3 float64) {
	if instructions == 0 {
		return 0, 0, 0
	}
	k := float64(instructions) / 1000
	return float64(s.L1Misses) / k, float64(s.L2Misses) / k, float64(s.L3Misses) / k
}

// Reset clears all state and counters.
func (s *CacheSim) Reset() {
	s.l1.reset()
	s.l2.reset()
	s.l3.reset()
	s.Accesses, s.L1Misses, s.L2Misses, s.L3Misses = 0, 0, 0, 0
}
