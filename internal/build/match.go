package build

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/perf"
)

// MatchBlock is one exact match between two input sequences in the
// PAF-like form the seqwish transclosure ingests:
// seqs[SeqA][PosA:PosA+Len] == seqs[SeqB][PosB:PosB+Len] byte for byte.
type MatchBlock struct {
	SeqA, PosA int
	SeqB, PosB int
	Len        int
}

// PairStats summarizes one pair-matching run.
type PairStats struct {
	Anchors      int // shared-minimizer anchors (k-mer verified)
	Windows      int // candidate homology windows formed from anchor bands
	WindowsKept  int // windows whose WFA-estimated identity passed the filter
	Blocks       int // exact match blocks emitted
	MatchedBases int // sum of block lengths
	MinimizeTime time.Duration
	WFATime      time.Duration
}

// Add merges o into s (the all-vs-all aggregate).
func (s *PairStats) Add(o PairStats) {
	s.Anchors += o.Anchors
	s.Windows += o.Windows
	s.WindowsKept += o.WindowsKept
	s.Blocks += o.Blocks
	s.MatchedBases += o.MatchedBases
	s.MinimizeTime += o.MinimizeTime
	s.WFATime += o.WFATime
}

// Matching knobs of the wfmash stand-in. These are fixed constants rather
// than per-call parameters so PairMatches keeps the narrow signature the
// corpus-capture path uses.
const (
	// maxAnchorOcc caps how many occurrences of one minimizer hash seed
	// anchors (wfmash's repeat filtering).
	maxAnchorOcc = 8
	// diagBand groups anchors into one candidate window when their
	// diagonals are within this many bases (mashmap's mapping band).
	diagBand = 128
	// windowGap breaks a window when consecutive anchors are further apart
	// than this on sequence A.
	windowGap = 2048
	// maxDivergence rejects candidate windows whose WFA-refined divergence
	// exceeds it (wfmash's identity threshold, roughly 1-p of pggb -p).
	maxDivergence = 0.25
	// refineCap bounds the window slice handed to the WFA refinement; long
	// windows are identity-estimated from their prefix, as mashmap
	// estimates identity from sampled sketches rather than full alignment.
	refineCap = 4096
)

// anchorPair is one shared minimizer occurrence: a[pa:pa+k] == b[pb:pb+k].
type anchorPair struct {
	pa, pb int
}

// PairMatches finds the exact match blocks between sequences a and b — the
// wfmash-style mapping stage of PGGB. Shared (w,k)-minimizers seed anchors
// (verified byte-wise, so hash collisions never produce false matches),
// anchors are grouped by diagonal band into candidate homology windows
// (mashmap-style), each window's identity is refined with WFA, and accepted
// windows emit maximal exact match blocks around their anchors. ia and ib
// are the sequence indices stamped into the returned blocks.
//
// The result is deterministic for fixed inputs: blocks are emitted in
// sorted (PosA, PosB) order. The second return value reports matching
// statistics.
func PairMatches(ia int, a []byte, ib int, b []byte, k, w int, probe *perf.Probe) ([]MatchBlock, PairStats, error) {
	var st PairStats
	if len(a) == 0 || len(b) == 0 {
		return nil, st, fmt.Errorf("build: PairMatches needs non-empty sequences (len a=%d, b=%d)", len(a), len(b))
	}
	tMin := time.Now()
	ma, err := minimizer.Compute(a, k, w, probe)
	if err != nil {
		return nil, st, err
	}
	mb, err := minimizer.Compute(b, k, w, probe)
	if err != nil {
		return nil, st, err
	}
	st.MinimizeTime = time.Since(tMin)

	// Index A's minimizers, capped per hash (repeat filter).
	occ := make(map[uint64][]int, len(ma))
	for _, m := range ma {
		if locs := occ[m.Hash]; len(locs) < maxAnchorOcc {
			occ[m.Hash] = append(locs, m.Pos)
		}
	}

	// Anchors: B's minimizers looked up in A, k-mer verified.
	var anchors []anchorPair
	for _, m := range mb {
		for _, pa := range occ[m.Hash] {
			probe.Load(uintptr(0x400000)+uintptr(pa), 8)
			if bytes.Equal(a[pa:pa+k], b[m.Pos:m.Pos+k]) {
				probe.TakeBranch(0x40, true)
				anchors = append(anchors, anchorPair{pa: pa, pb: m.Pos})
			} else {
				probe.TakeBranch(0x40, false)
			}
			probe.Op(perf.ScalarInt, 4)
		}
	}
	st.Anchors = len(anchors)
	if len(anchors) == 0 {
		return nil, st, nil
	}

	// Sort by (diagonal, posA) and split into banded candidate windows.
	sort.Slice(anchors, func(i, j int) bool {
		di, dj := anchors[i].pa-anchors[i].pb, anchors[j].pa-anchors[j].pb
		if di != dj {
			return di < dj
		}
		if anchors[i].pa != anchors[j].pa {
			return anchors[i].pa < anchors[j].pa
		}
		return anchors[i].pb < anchors[j].pb
	})

	var blocks []MatchBlock
	covered := make(map[int]int) // diagonal → exclusive end of last block on it

	winStart := 0
	flush := func(winEnd int) {
		if winEnd <= winStart {
			return
		}
		st.Windows++
		win := anchors[winStart:winEnd]
		// Window span on both sequences.
		aLo, aHi := win[0].pa, win[0].pa+k
		bLo, bHi := win[0].pb, win[0].pb+k
		for _, an := range win[1:] {
			if an.pa < aLo {
				aLo = an.pa
			}
			if an.pa+k > aHi {
				aHi = an.pa + k
			}
			if an.pb < bLo {
				bLo = an.pb
			}
			if an.pb+k > bHi {
				bHi = an.pb + k
			}
		}
		// WFA refinement: estimate the window's divergence; reject
		// windows that are homologous-looking by chance.
		ra, rb := a[aLo:aHi], b[bLo:bHi]
		if len(ra) > refineCap {
			ra = ra[:refineCap]
		}
		if len(rb) > refineCap {
			rb = rb[:refineCap]
		}
		t0 := time.Now()
		d := align.WFAEdit(ra, rb, probe)
		st.WFATime += time.Since(t0)
		span := len(ra)
		if len(rb) > span {
			span = len(rb)
		}
		if float64(d) > maxDivergence*float64(span) {
			return
		}
		st.WindowsKept++
		// Emit maximal exact blocks around each anchor, at most one block
		// per diagonal region (covered tracks per-diagonal progress).
		for _, an := range win {
			diag := an.pa - an.pb
			if end, ok := covered[diag]; ok && an.pa < end {
				probe.TakeBranch(0x41, false)
				continue // inside a block already emitted on this diagonal
			}
			probe.TakeBranch(0x41, true)
			start := an.pa
			lim := covered[diag]
			for start > lim && start-diag > 0 && a[start-1] == b[start-1-diag] {
				start--
			}
			end := an.pa + k
			for end < len(a) && end-diag < len(b) && a[end] == b[end-diag] {
				end++
			}
			probe.Op(perf.ScalarInt, 2*(end-start-k)+6)
			if end-start < k {
				continue
			}
			covered[diag] = end
			blocks = append(blocks, MatchBlock{
				SeqA: ia, PosA: start,
				SeqB: ib, PosB: start - diag,
				Len: end - start,
			})
		}
	}
	for i := 1; i < len(anchors); i++ {
		sameBand := anchors[i].pa-anchors[i].pb-(anchors[winStart].pa-anchors[winStart].pb) <= diagBand
		closeBy := anchors[i].pa-anchors[i-1].pa <= windowGap
		if !sameBand || !closeBy {
			flush(i)
			winStart = i
		}
	}
	flush(len(anchors))

	sortBlocks(blocks)
	st.Blocks = len(blocks)
	for _, blk := range blocks {
		st.MatchedBases += blk.Len
	}
	return blocks, st, nil
}

// AllPairMatches runs PairMatches over every unordered pair (i<j) of seqs
// on a bounded worker pool of `workers` goroutines (≤0 uses GOMAXPROCS) —
// the quadratic all-vs-all homology search that dominates PGGB's alignment
// stage. Pairs are distributed dynamically but results are merged in
// canonical pair order ((0,1), (0,2), …, (n-2,n-1)), so the returned block
// slice is identical regardless of worker count or scheduling.
//
// ctx cancels the search between pairs: a canceled context returns
// ctx.Err() without waiting for the remaining pairs (serve-mode request
// timeouts ride on this). A nil ctx behaves like context.Background().
//
// The perf probe is not safe for concurrent use, so an instrumented run
// (probe != nil) executes the pairs serially — the same rule the kernel
// registry applies to instrumented kernel runs.
func AllPairMatches(ctx context.Context, seqs [][]byte, k, w, workers int, probe *perf.Probe) ([]MatchBlock, PairStats, error) {
	return matchPairs(ctx, len(seqs), workers, probe, func(i, j int, pr *perf.Probe) ([]MatchBlock, PairStats, error) {
		return PairMatches(i, seqs[i], j, seqs[j], k, w, pr)
	})
}

// CohortMatches is AllPairMatches over a cohort of named assemblies whose
// pair results come from pair — a PairCache, or a fleet of remote workers.
// Each unordered pair is handed to pair in canonical orientation: a < b by
// name, seqA and seqB their sequences. pair returns the blocks in that
// orientation (SeqA = 0 names a), which CohortMatches does not mutate, and
// whether they were reused. The blocks are remapped into cohort indices and
// merged in canonical pair order, so for a deterministic pair the result
// equals AllPairMatches(ctx, seqs, …) whatever the order of names. hits
// counts the pairs pair reported as reused. workers and ctx are as for
// AllPairMatches.
func CohortMatches(ctx context.Context, names []string, seqs [][]byte, workers int,
	pair func(ctx context.Context, a, b string, seqA, seqB []byte) ([]MatchBlock, PairStats, bool, error),
) (blocks []MatchBlock, stats PairStats, hits int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var reused atomic.Int64
	blocks, stats, err = matchPairs(ctx, len(names), workers, nil, func(i, j int, _ *perf.Probe) ([]MatchBlock, PairStats, error) {
		swapped := names[i] > names[j]
		a, b, seqA, seqB := names[i], names[j], seqs[i], seqs[j]
		if swapped {
			a, b, seqA, seqB = b, a, seqB, seqA
		}
		canonical, st, hit, err := pair(ctx, a, b, seqA, seqB)
		if err != nil {
			return nil, PairStats{}, err
		}
		if hit {
			reused.Add(1)
		}
		return remapBlocks(canonical, i, j, swapped), st, nil
	})
	if err != nil {
		return nil, PairStats{}, 0, err
	}
	return blocks, stats, int(reused.Load()), nil
}

// matchPairs runs match over every unordered pair (i<j) of n sequences on
// forEach and merges the blocks and stats in canonical pair order ((0,1),
// (0,2), …, (n-2,n-1)), so the result does not depend on workers or
// scheduling. The first failed pair in that order fails the whole run.
func matchPairs(ctx context.Context, n, workers int, probe *perf.Probe, match func(i, j int, probe *perf.Probe) ([]MatchBlock, PairStats, error)) ([]MatchBlock, PairStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var jobs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			jobs = append(jobs, [2]int{i, j})
		}
	}
	results := make([][]MatchBlock, len(jobs))
	stats := make([]PairStats, len(jobs))
	errs := make([]error, len(jobs))

	err := forEach(ctx, len(jobs), workers, probe, func() func(int, *perf.Probe) {
		return func(ji int, pr *perf.Probe) {
			results[ji], stats[ji], errs[ji] = match(jobs[ji][0], jobs[ji][1], pr)
		}
	})
	if err != nil {
		return nil, PairStats{}, err
	}

	var out []MatchBlock
	var agg PairStats
	for ji := range jobs {
		if errs[ji] != nil {
			return nil, agg, errs[ji]
		}
		out = append(out, results[ji]...)
		agg.Add(stats[ji])
	}
	return out, agg, nil
}

// remapBlocks converts one pair's canonical blocks (indices 0/1 in
// name-sorted orientation) into cohort indices i/j, swapping the A/B roles
// when the cohort lists the pair in reverse name order and then restoring
// sorted (PosA, PosB) order. Unswapped blocks are already in that order.
func remapBlocks(canonical []MatchBlock, i, j int, swapped bool) []MatchBlock {
	out := make([]MatchBlock, len(canonical))
	for bi, blk := range canonical {
		if swapped {
			blk.PosA, blk.PosB = blk.PosB, blk.PosA
		}
		out[bi] = MatchBlock{SeqA: i, PosA: blk.PosA, SeqB: j, PosB: blk.PosB, Len: blk.Len}
	}
	if swapped {
		sortBlocks(out)
	}
	return out
}

// sortBlocks puts blocks in canonical order: by A position, then B position.
func sortBlocks(blocks []MatchBlock) {
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].PosA != blocks[j].PosA {
			return blocks[i].PosA < blocks[j].PosA
		}
		return blocks[i].PosB < blocks[j].PosB
	})
}
