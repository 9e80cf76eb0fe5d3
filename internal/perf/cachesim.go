package perf

// CacheGeometry describes one cache level.
type CacheGeometry struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Hierarchy is a three-level data-cache configuration.
type Hierarchy struct {
	L1, L2, L3 CacheGeometry
}

// MachineB is the Xeon Gold 6326 of the paper's Table 5 (L1d 48K/12w,
// L2 1.25M/20w, L3 24M/12w), the machine used for its microarchitectural
// analyses.
var MachineB = Hierarchy{
	L1: CacheGeometry{48 << 10, 12, 64},
	L2: CacheGeometry{1280 << 10, 20, 64},
	L3: CacheGeometry{24 << 20, 12, 64},
}

// cacheLevel is one set-associative cache with exact LRU replacement. lines
// holds each set as a run of ways slots: the set's resident line addresses
// plus one, most recently used first, then its empty ways as 0.
type cacheLevel struct {
	ways     int
	lineBits uint
	setMask  uint64
	lines    []uint64 // sets × ways
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
		ways:     g.Ways,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		lines:    make([]uint64, sets*g.Ways),
	}
}

// access looks up one line address and moves it to the front of its set;
// returns true on hit. A miss installs the line at the front and drops the
// set's last slot: the least recently used line, or an empty way.
func (c *cacheLevel) access(line uint64) bool {
	base := int(line&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	key := line + 1
	if set[0] == key {
		return true
	}
	w := 0
	for w < len(set)-1 && set[w] != key && set[w] != 0 {
		w++
	}
	hit := set[w] == key
	copy(set[1:w+1], set[:w])
	set[0] = key
	return hit
}

// CacheSim simulates an inclusive three-level data-cache hierarchy and counts
// exclusive misses per level, matching Fig. 7's convention: an access that
// misses L1 but hits L2 counts only as an L2 "miss-filled" event, reported as
// an L1 miss that did NOT also count at L2.
type CacheSim struct {
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
		l1: newCacheLevel(h.L1),
		l2: newCacheLevel(h.L2),
		l3: newCacheLevel(h.L3),
	}
}

// Access runs one data access of size bytes at addr through the hierarchy.
// Accesses spanning a line boundary touch both lines.
func (s *CacheSim) Access(addr uint64, size int) {
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
