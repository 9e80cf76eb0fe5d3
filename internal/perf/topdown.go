package perf

import "fmt"

// Pipeline latency parameters of the analytic top-down model. The model is a
// 4-wide superscalar core in the spirit of Yasin's top-down method (the
// paper's [39]): every cycle has Width issue slots; a slot either retires a
// micro-op or is attributed to one of the four stall categories.
const (
	Width = 4 // superscalar issue width (Table 6 caption: "4-way CPU core")

	mispredictPenalty = 15 // cycles of squashed work per branch mispredict

	l2FillLatency   = 10  // L1 miss filled from L2
	l3FillLatency   = 30  // L2 miss filled from L3
	dramFillLatency = 150 // L3 miss filled from DRAM

	// memOverlap is the fraction of miss latency hidden by out-of-order
	// overlap and MLP; the remainder stalls the backend.
	memOverlap = 0.65
)

// TopDown is a top-down pipeline breakdown: the fraction of issue slots
// retiring or stalled per category (Fig. 6), plus the resulting IPC
// (Table 6). Fractions sum to 1.
type TopDown struct {
	Retiring       float64
	FrontEndBound  float64
	BadSpeculation float64
	CoreBound      float64
	MemoryBound    float64

	Cycles       float64
	Instructions uint64
	IPC          float64
}

// Analyze reduces a probe's event stream to a top-down breakdown.
func Analyze(p *Probe) TopDown {
	var td TopDown
	instr := p.Instructions()
	if instr == 0 {
		return td
	}

	retireCycles := float64(instr) / Width

	badSpecCycles := float64(p.Mispredicts) * mispredictPenalty

	var memCycles float64
	if p.Cache != nil {
		c := p.Cache
		raw := float64(c.L1Misses)*l2FillLatency +
			float64(c.L2Misses)*l3FillLatency +
			float64(c.L3Misses)*dramFillLatency
		memCycles = raw * (1 - memOverlap)
	}

	coreCycles := float64(p.DepCycles)

	// Front-end bubbles: fetch redirect after every taken branch through
	// hard-to-predict code plus the instruction-supply cost of
	// front-end-hostile regions.
	feCycles := float64(p.FrontendOps) / Width

	total := retireCycles + badSpecCycles + memCycles + coreCycles + feCycles
	if total <= 0 {
		return td
	}

	slots := total * Width
	td.Retiring = float64(instr) / slots
	td.BadSpeculation = badSpecCycles * Width / slots
	td.MemoryBound = memCycles * Width / slots
	td.CoreBound = coreCycles * Width / slots
	td.FrontEndBound = feCycles * Width / slots
	td.Cycles = total
	td.Instructions = instr
	td.IPC = float64(instr) / total
	return td
}

// String renders the breakdown as one row.
func (t TopDown) String() string {
	return fmt.Sprintf("retiring=%.2f frontend=%.2f badspec=%.2f core=%.2f memory=%.2f ipc=%.2f",
		t.Retiring, t.FrontEndBound, t.BadSpeculation, t.CoreBound, t.MemoryBound, t.IPC)
}

// Report bundles everything the characterization experiments need about one
// profiled kernel run.
type Report struct {
	Kernel  string
	TopDown TopDown
	Mix     map[Class]float64
	L1MPKI  float64
	L2MPKI  float64
	L3MPKI  float64

	Instructions   uint64
	Stores         uint64
	Mispredicts    uint64
	BranchMissRate float64
}

// NewReport snapshots a probe into a Report.
func NewReport(kernel string, p *Probe) Report {
	r := Report{
		Kernel:       kernel,
		TopDown:      Analyze(p),
		Mix:          p.Mix(),
		Instructions: p.Instructions(),
		Stores:       p.Stores,
		Mispredicts:  p.Mispredicts,
	}
	if p.Branches > 0 {
		r.BranchMissRate = float64(p.Mispredicts) / float64(p.Branches)
	}
	if p.Cache != nil {
		r.L1MPKI, r.L2MPKI, r.L3MPKI = p.Cache.MPKI(r.Instructions)
	}
	return r
}
