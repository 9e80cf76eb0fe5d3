package build

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pangenomicsbench/internal/perf"
)

// TestPGGBPolishWorkerDeterminism is the polish-stage contract: windows run
// on the Workers pool and are reduced in window order, so the Result — GFA
// bytes and every counted stat, PolishBlocks and ConsensusLen included — is
// identical for any worker count, and for an instrumented (serial) run.
func TestPGGBPolishWorkerDeterminism(t *testing.T) {
	names, seqs := testAssemblies(t, 8000, 4)
	cfg := DefaultPGGBConfig()
	cfg.LayoutIterations = 0
	cfg.Workers = 1
	base, err := PGGB(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(seqs[0]) + polishWindow - 1) / polishWindow; base.Stats.PolishBlocks != want || want < 8 {
		t.Fatalf("polished %d windows, want %d (and enough of them to share)", base.Stats.PolishBlocks, want)
	}
	if base.Stats.ConsensusLen < len(seqs[0])*9/10 {
		t.Fatalf("consensus covers %d bp of a %d bp backbone", base.Stats.ConsensusLen, len(seqs[0]))
	}
	want := gfaBytes(t, base.Graph)
	check := func(label string, got *Result) {
		t.Helper()
		if got.Stats != base.Stats {
			t.Fatalf("%s changed stats:\n%+v\n%+v", label, got.Stats, base.Stats)
		}
		if !bytes.Equal(gfaBytes(t, got.Graph), want) {
			t.Fatalf("%s changed the constructed graph", label)
		}
		if bd := got.Breakdown; bd.POATime <= 0 || bd.POATime > bd.Polishing {
			t.Fatalf("%s: POA time %v outside its polishing stage %v", label, bd.POATime, bd.Polishing)
		}
	}
	for _, workers := range []int{2, 8, 0} {
		cfg.Workers = workers
		got, err := PGGB(context.Background(), names, seqs, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("workers=%d", workers), got)
	}
	probe := perf.NewProbe()
	got, err := PGGB(context.Background(), names, seqs, cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	check("probe", got)
	if probe.Instructions() == 0 {
		t.Fatal("instrumented run recorded no instructions")
	}
}

// cancelAfter is a context whose Err turns to Canceled after n calls: the
// pipelines poll Err between units of work, so this cancels at an exact
// unit without timers.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPGGBCancelMidPolish cancels after a few polish windows have been
// handed out: the build must return ctx.Err() with every pool worker
// joined.
func TestPGGBCancelMidPolish(t *testing.T) {
	names, seqs := testAssemblies(t, 8000, 4)
	cfg := DefaultPGGBConfig()
	cfg.LayoutIterations = 0
	blocks, mst, err := AllPairMatches(context.Background(), seqs, cfg.K, cfg.W, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		before := runtime.NumGoroutine()
		// PGGBFromMatches polls once after induction; the next polls are
		// forEach's, one per window, so the 5th lands among the 14 windows.
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(4)
		res, err := PGGBFromMatches(ctx, names, seqs, blocks, mst, cfg, nil)
		if err != context.Canceled || res != nil {
			t.Fatalf("workers=%d: got (%v, %v), want (nil, context.Canceled)", workers, res, err)
		}
		// forEach waited for its workers; give exiting goroutines the
		// scheduler until the count settles.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines after a cancelled build, %d before", workers, n, before)
		}
	}
}

// TestPGGBBuildAllocBytes pins what one 4 × 8 kb build allocates. The
// full-matrix POA took ~135 MB of it (a fresh nodes × 601 matrix per
// polish window); band-resident, build-scoped scratch leaves under 10.
func TestPGGBBuildAllocBytes(t *testing.T) {
	names, seqs := testAssemblies(t, 8000, 4)
	cfg := DefaultPGGBConfig()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := PGGB(context.Background(), names, seqs, cfg, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if mb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6; mb > 25 {
		t.Errorf("one 4 x 8 kb PGGB build allocated %.1f MB; want <= 25", mb)
	} else {
		t.Logf("one 4 x 8 kb PGGB build allocated %.1f MB", mb)
	}
}
