package perf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	p.Op(Vector, 3)
	p.Load(0x1000, 8)
	p.Store(0x2000, 8)
	p.TakeBranch(1, true)
	p.Dep(2)
	p.Frontend(1)
	if p.Instructions() != 0 {
		t.Fatal("nil probe must report zero instructions")
	}
	if len(p.Mix()) != 0 {
		t.Fatal("nil probe mix must be empty")
	}
}

func TestProbeCounts(t *testing.T) {
	p := NewProbe()
	p.Op(ScalarInt, 10)
	p.Op(Vector, 5)
	p.Load(0x1000, 4)
	p.Store(0x1004, 4)
	if got := p.Instructions(); got != 17 {
		t.Fatalf("Instructions = %d, want 17", got)
	}
	mix := p.Mix()
	if mix[Vector] != 5.0/17 {
		t.Fatalf("vector mix = %v", mix[Vector])
	}
	if p.Loads != 1 || p.Stores != 1 {
		t.Fatalf("loads/stores = %d/%d", p.Loads, p.Stores)
	}
}

func TestMixSumsToOne(t *testing.T) {
	p := NewProbe()
	p.Op(Vector, 3)
	p.Op(Memory, 7)
	p.Op(Branch, 2)
	p.Op(ScalarFP, 4)
	sum := 0.0
	for _, f := range p.Mix() {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("mix sums to %v, want 1", sum)
	}
}

func TestCacheSimSequentialLocality(t *testing.T) {
	// A sequential scan of a small array must hit L1 after the first touch
	// of each line.
	c := NewCacheSim(MachineB)
	for i := 0; i < 4096; i++ {
		c.Access(uint64(i), 1)
	}
	wantMisses := uint64(4096 / 64)
	total := c.L1Misses + c.L2Misses + c.L3Misses
	if total != wantMisses {
		t.Fatalf("sequential scan missed %d lines, want %d", total, wantMisses)
	}
}

func TestCacheSimCapacityMisses(t *testing.T) {
	// A working set far larger than L1 must produce L1 misses on re-scan;
	// one that fits in L1 must not.
	big := NewCacheSim(MachineB)
	span := uint64(4 << 20) // 4 MiB > L1+L2
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < span; a += 64 {
			big.Access(a, 1)
		}
	}
	if big.L1Misses+big.L2Misses+big.L3Misses <= span/64 {
		t.Fatal("large working set should keep missing on the second pass")
	}

	small := NewCacheSim(MachineB)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 16<<10; a += 64 {
			small.Access(a, 1)
		}
	}
	firstPassLines := uint64(16 << 10 / 64)
	if got := small.L1Misses + small.L2Misses + small.L3Misses; got != firstPassLines {
		t.Fatalf("L1-resident set missed %d times, want %d (compulsory only)", got, firstPassLines)
	}
}

func TestCacheSimLineStraddle(t *testing.T) {
	c := NewCacheSim(MachineB)
	c.Access(60, 8) // straddles lines 0 and 1
	if c.Accesses != 2 {
		t.Fatalf("straddling access counted %d times, want 2", c.Accesses)
	}
}

func TestCacheExclusiveMissCounting(t *testing.T) {
	c := NewCacheSim(MachineB)
	// First touch of one line goes to DRAM: exactly one L3 (DRAM) miss and
	// no L1/L2 exclusive misses.
	c.Access(0x100000, 1)
	if c.L3Misses != 1 || c.L1Misses != 0 || c.L2Misses != 0 {
		t.Fatalf("first touch: got L1=%d L2=%d L3=%d", c.L1Misses, c.L2Misses, c.L3Misses)
	}
}

// TestCacheLRUOrder: a miss in a full set evicts the least recently used
// line and keeps the more recent one.
func TestCacheLRUOrder(t *testing.T) {
	c := newCacheLevel(CacheGeometry{SizeBytes: 128, Ways: 2, LineBytes: 64}) // one set, two ways
	c.access(1)
	c.access(2)
	c.access(3) // evicts the least recently used line, 1
	if !c.access(2) {
		t.Fatal("line 2 was evicted, but line 1 was the least recently used")
	}
	if c.access(1) {
		t.Fatal("line 1 survived, but it was the least recently used")
	}
}

func TestBranchSimLearnsLoop(t *testing.T) {
	b := NewBranchSim(12)
	// A branch taken 999 times then not taken once (classic loop) should be
	// predicted nearly perfectly after warmup.
	for i := 0; i < 1000; i++ {
		b.Predict(0x400, i != 999)
	}
	if b.MispredictRate() > 0.05 {
		t.Fatalf("loop branch mispredict rate %v too high", b.MispredictRate())
	}
}

func TestBranchSimRandomIsHard(t *testing.T) {
	b := NewBranchSim(12)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b.Predict(0x400, rng.Intn(2) == 0)
	}
	if b.MispredictRate() < 0.30 {
		t.Fatalf("random branch mispredict rate %v suspiciously low", b.MispredictRate())
	}
}

func TestTopDownFractionsSumToOne(t *testing.T) {
	f := func(nInt, nVec, nLoads uint16, deps uint16) bool {
		p := NewProbe()
		p.Op(ScalarInt, int(nInt)+1)
		p.Op(Vector, int(nVec))
		for i := 0; i < int(nLoads); i++ {
			p.Load(uintptr(i)*64931, 8)
		}
		p.Dep(int(deps))
		td := Analyze(p)
		sum := td.Retiring + td.FrontEndBound + td.BadSpeculation + td.CoreBound + td.MemoryBound
		return sum > 0.999 && sum < 1.001 && td.IPC > 0 && td.IPC <= Width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopDownMemoryBoundKernel(t *testing.T) {
	// A pointer-chasing kernel over a huge footprint must be memory bound;
	// a pure ALU kernel must be retiring-dominated.
	mem := NewProbe()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		mem.Op(ScalarInt, 1)
		mem.Load(uintptr(rng.Int63n(1<<30)), 8)
	}
	alu := NewProbe()
	alu.Op(ScalarInt, 100000)

	tdMem, tdALU := Analyze(mem), Analyze(alu)
	if tdMem.MemoryBound < 0.5 {
		t.Fatalf("random pointer chase should be memory bound, got %+v", tdMem)
	}
	if tdALU.Retiring < 0.95 {
		t.Fatalf("pure ALU kernel should retire, got %+v", tdALU)
	}
	if tdALU.IPC <= tdMem.IPC {
		t.Fatal("ALU kernel should have higher IPC than memory-bound kernel")
	}
}

func TestReport(t *testing.T) {
	p := NewProbe()
	p.Op(ScalarInt, 1000)
	for i := 0; i < 100; i++ {
		p.TakeBranch(uint64(i%3), i%2 == 0)
	}
	r := NewReport("toy", p)
	if r.Kernel != "toy" {
		t.Fatal("kernel name lost")
	}
	if r.Instructions != p.Instructions() {
		t.Fatal("instruction count mismatch")
	}
	if r.BranchMissRate <= 0 {
		t.Fatal("alternating branch should mispredict sometimes")
	}
}
