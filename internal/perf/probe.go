// Package perf is the measurement substrate of PangenomicsBench-Go. The
// paper characterizes its kernels with Intel VTune (top-down pipeline
// analysis, cache miss rates) and Intel PIN/MICA (dynamic instruction mix);
// neither exists here, so every kernel in this suite is instrumented with a
// Probe that records the kernel's dynamic event stream — operations by
// class, memory accesses by address, branches by outcome, and data-dependency
// chains — and perf turns that stream into the same artifacts: a dynamic
// instruction mix (Fig. 8), misses-per-kilo-instruction through a simulated
// three-level cache hierarchy (Fig. 7), and a top-down bottleneck breakdown
// with IPC from an analytic 4-wide superscalar model (Fig. 6, Table 6).
//
// A nil *Probe is valid everywhere and records nothing. Every recording
// method inlines, so with a nil probe the timed benchmark runs pay only a
// nil check at each call site.
package perf

// Class is a dynamic instruction class. Classes follow the paper's Fig. 8
// legend and its hierarchical binning rule: an instruction that fits several
// classes is binned to the first one in this order.
type Class int

// Instruction classes in hierarchical binning order (Fig. 8).
const (
	Vector    Class = iota // SIMD operations (any width > machine word)
	Memory                 // loads and stores
	Branch                 // conditional and indirect control flow
	Register               // register-to-register moves
	ScalarFP               // scalar floating point (incl. SSE scalar ops)
	ScalarInt              // everything else
	numClasses
)

// String returns the Fig. 8 legend label.
func (c Class) String() string {
	switch c {
	case Vector:
		return "Vector"
	case Memory:
		return "Memory"
	case Branch:
		return "Branch"
	case Register:
		return "Register"
	case ScalarFP:
		return "ScalarFP"
	case ScalarInt:
		return "ScalarInt"
	}
	return "Unknown"
}

// Classes lists all instruction classes in binning order.
func Classes() []Class {
	return []Class{Vector, Memory, Branch, Register, ScalarFP, ScalarInt}
}

// Probe accumulates a kernel's dynamic event stream. The zero value is ready
// to use but most callers want NewProbe, which attaches the Machine B cache
// hierarchy and branch predictor.
type Probe struct {
	Ops [numClasses]uint64 // dynamic instruction counts by class

	Loads  uint64
	Stores uint64

	Branches    uint64
	Mispredicts uint64

	// DepCycles accumulates cycles lost to data-dependency serialization
	// (loop-carried DP-cell chains, div/sqrt latency). Kernels report these
	// at the points where their algorithm genuinely serializes.
	DepCycles uint64

	// FrontendOps counts operations fetched through hard-to-predict
	// instruction streams (indirect dispatch, dense data-dependent control),
	// which the top-down model charges to the front end.
	FrontendOps uint64

	Cache  *CacheSim
	Branch *BranchSim
}

// NewProbe returns a probe with the Machine B cache hierarchy (Table 5) and
// a gshare branch predictor attached.
func NewProbe() *Probe {
	return &Probe{Cache: NewCacheSim(MachineB), Branch: NewBranchSim(14)}
}

// Op records n dynamic instructions of class c.
func (p *Probe) Op(c Class, n int) {
	if p == nil {
		return
	}
	p.Ops[c] += uint64(n)
}

// Load records a data load of size bytes at addr and routes it through the
// cache simulator. It also counts one Memory-class instruction.
func (p *Probe) Load(addr uintptr, size int) {
	if p != nil {
		p.load(addr, size)
	}
}

// Store records a data store, analogous to Load.
func (p *Probe) Store(addr uintptr, size int) {
	if p != nil {
		p.store(addr, size)
	}
}

// TakeBranch records a conditional branch at site pc with the given outcome
// and consults the branch predictor for a misprediction.
func (p *Probe) TakeBranch(pc uint64, taken bool) {
	if p != nil {
		p.takeBranch(pc, taken)
	}
}

// The bodies of Load, Store and TakeBranch stay out of line so that the
// exported wrappers fit the inliner's budget and a nil probe costs one
// compare at the call site. Without //go:noinline the compiler inlines a
// body back into its wrapper, which pushes the wrapper over the budget.

//go:noinline
func (p *Probe) load(addr uintptr, size int) {
	p.Ops[Memory]++
	p.Loads++
	if p.Cache != nil {
		p.Cache.Access(uint64(addr), size)
	}
}

//go:noinline
func (p *Probe) store(addr uintptr, size int) {
	p.Ops[Memory]++
	p.Stores++
	if p.Cache != nil {
		p.Cache.Access(uint64(addr), size)
	}
}

//go:noinline
func (p *Probe) takeBranch(pc uint64, taken bool) {
	p.Ops[Branch]++
	p.Branches++
	if p.Branch != nil && !p.Branch.Predict(pc, taken) {
		p.Mispredicts++
	}
}

// Dep records n cycles of unavoidable data-dependency latency (e.g. the
// loop-carried H/E/F chain of a Smith-Waterman cell, or a division).
func (p *Probe) Dep(n int) {
	if p == nil {
		return
	}
	p.DepCycles += uint64(n)
}

// Frontend records n instructions issued through front-end-hostile code
// (indirect jumps, dense data-dependent dispatch).
func (p *Probe) Frontend(n int) {
	if p == nil {
		return
	}
	p.FrontendOps += uint64(n)
}

// Instructions returns the total dynamic instruction count.
func (p *Probe) Instructions() uint64 {
	if p == nil {
		return 0
	}
	var t uint64
	for _, n := range p.Ops {
		t += n
	}
	return t
}

// Mix returns the instruction-mix fractions by class (Fig. 8). The fractions
// sum to 1 when any instructions were recorded.
func (p *Probe) Mix() map[Class]float64 {
	m := make(map[Class]float64, numClasses)
	total := p.Instructions()
	if total == 0 {
		return m
	}
	for c := Class(0); c < numClasses; c++ {
		m[c] = float64(p.Ops[c]) / float64(total)
	}
	return m
}
