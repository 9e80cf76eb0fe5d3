package perf

// BranchSim is a gshare conditional branch predictor: a global history
// register XORed with the branch site indexes a table of 2-bit saturating
// counters. It models the mispredictions that dominate the paper's
// BadSpeculation measurements (§5.2).
type BranchSim struct {
	bits    uint
	mask    uint64
	history uint64
	table   []uint8

	Lookups     uint64
	Mispredicts uint64
}

// NewBranchSim builds a predictor with 2^bits counters.
func NewBranchSim(bits uint) *BranchSim {
	return &BranchSim{
		bits:  bits,
		mask:  (1 << bits) - 1,
		table: make([]uint8, 1<<bits),
	}
}

// Predict records the outcome of the branch at site pc and returns whether
// the predictor got it right. The table trains on every lookup.
func (b *BranchSim) Predict(pc uint64, taken bool) bool {
	b.Lookups++
	idx := (pc ^ b.history) & b.mask
	ctr := b.table[idx]
	predictTaken := ctr >= 2
	if taken {
		if ctr < 3 {
			b.table[idx] = ctr + 1
		}
	} else if ctr > 0 {
		b.table[idx] = ctr - 1
	}
	b.history = ((b.history << 1) | boolBit(taken)) & b.mask
	correct := predictTaken == taken
	if !correct {
		b.Mispredicts++
	}
	return correct
}

// MispredictRate returns the fraction of mispredicted lookups.
func (b *BranchSim) MispredictRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Lookups)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
