package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"pangenomicsbench/internal/gensim"
)

// batchTestReads simulates n reads of the given length from the shared test
// population.
func batchTestReads(t *testing.T, pop *gensim.Population, n, length int, seed int64) [][]byte {
	t.Helper()
	reads, err := pop.SimulateReads(gensim.ReadConfig{Count: n, Length: length, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i, r := range reads {
		out[i] = r.Seq
	}
	return out
}

// TestMapBatchMatchesSerial is the batched-path differential: for every
// tool, MapBatch at batch sizes {1, 7, 8, 16, odd tail} must produce
// Results byte-identical to one MapCtx call per read.
func TestMapBatchMatchesSerial(t *testing.T) {
	pop, tools := ctxTestTools(t)
	all := batchTestReads(t, pop, 23, 900, 11) // 23 = 16 + odd tail of 7
	for _, tool := range tools {
		want := make([]Result, len(all))
		for i, read := range all {
			r, _, err := tool.MapCtx(context.Background(), read, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r
		}
		for _, size := range []int{1, 7, 8, 16, len(all)} {
			for lo := 0; lo < len(all); lo += size {
				hi := lo + size
				if hi > len(all) {
					hi = len(all)
				}
				reads := all[lo:hi]
				results := make([]Result, len(reads))
				stages := make([]StageTimes, len(reads))
				n, err := tool.MapBatch(context.Background(), reads, results, stages, nil)
				if err != nil {
					t.Fatalf("%s size %d: %v", tool.Name(), size, err)
				}
				if n != len(reads) {
					t.Fatalf("%s size %d: completed %d of %d", tool.Name(), size, n, len(reads))
				}
				for i := range reads {
					if results[i] != want[lo+i] {
						t.Errorf("%s size %d read %d: batched %+v != serial %+v",
							tool.Name(), size, lo+i, results[i], want[lo+i])
					}
				}
			}
		}
	}
}

// TestMapBatchCanceled mirrors TestMapCtxCanceled for the batched path: a
// pre-canceled context yields a typed *BatchError wrapping context.Canceled
// with zero completed reads, a mid-batch cancellation leaves a valid
// completed prefix, and the tool keeps working afterwards.
func TestMapBatchCanceled(t *testing.T) {
	pop, tools := ctxTestTools(t)
	reads := batchTestReads(t, pop, 8, 900, 13)
	for _, tool := range tools {
		want := make([]Result, len(reads))
		for i, read := range reads {
			want[i], _, _ = tool.MapCtx(context.Background(), read, nil)
		}
		results := make([]Result, len(reads))
		stages := make([]StageTimes, len(reads))

		// Pre-canceled: typed error, nothing completed.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		n, err := tool.MapBatch(ctx, reads, results, stages, nil)
		if n != 0 {
			t.Errorf("%s: pre-canceled batch completed %d reads", tool.Name(), n)
		}
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("%s: pre-canceled batch error %T (%v), want *BatchError", tool.Name(), err, err)
		}
		if be.Done != n || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: BatchError{Done: %d} (n=%d), Is(Canceled)=%v", tool.Name(), be.Done, n, errors.Is(err, context.Canceled))
		}

		// Mid-batch: cancel while the batch runs; whatever prefix completed
		// must match the serial results.
		ctx, cancel = context.WithCancel(context.Background())
		go func() {
			time.Sleep(200 * time.Microsecond)
			cancel()
		}()
		n, err = tool.MapBatch(ctx, reads, results, stages, nil)
		if err != nil {
			if !errors.As(err, &be) {
				t.Fatalf("%s: mid-batch error %T (%v), want *BatchError", tool.Name(), err, err)
			}
			if be.Done != n {
				t.Errorf("%s: mid-batch BatchError.Done %d != returned %d", tool.Name(), be.Done, n)
			}
		} else if n != len(reads) {
			t.Errorf("%s: nil error but only %d/%d completed", tool.Name(), n, len(reads))
		}
		for i := 0; i < n; i++ {
			if results[i] != want[i] {
				t.Errorf("%s: completed prefix read %d: %+v != serial %+v", tool.Name(), i, results[i], want[i])
			}
		}
		cancel()

		// The tool must still work on the same scratch afterwards.
		n, err = tool.MapBatch(context.Background(), reads, results, stages, nil)
		if err != nil || n != len(reads) {
			t.Errorf("%s: post-cancel batch: n=%d err=%v", tool.Name(), n, err)
		}
		for i := range reads {
			if results[i] != want[i] {
				t.Errorf("%s: post-cancel read %d: %+v != serial %+v", tool.Name(), i, results[i], want[i])
			}
		}
	}
}

// TestMapBatchShortSlices pins the caller-contract error: output slices
// shorter than reads are rejected without mapping anything.
func TestMapBatchShortSlices(t *testing.T) {
	_, tools := ctxTestTools(t)
	reads := [][]byte{[]byte("ACGTACGTACGTACGTACGT")}
	for _, tool := range tools {
		if n, err := tool.MapBatch(context.Background(), reads, nil, nil, nil); err == nil || n != 0 {
			t.Errorf("%s: short slices accepted (n=%d err=%v)", tool.Name(), n, err)
		}
	}
}

// TestMapBatchStageAttribution extends the stage-sum bound to the batched
// path: the per-read stage totals of one batch must not exceed the batch's
// measured wall time by more than the 10% attribution bound — no stage
// timer may count work twice.
func TestMapBatchStageAttribution(t *testing.T) {
	pop, tools := ctxTestTools(t)
	reads := batchTestReads(t, pop, 16, 900, 17)
	results := make([]Result, len(reads))
	stages := make([]StageTimes, len(reads))
	for _, tool := range tools {
		// Warm once so steady-state timing is not dominated by first-call
		// growth, then measure.
		if _, err := tool.MapBatch(context.Background(), reads, results, stages, nil); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if _, err := tool.MapBatch(context.Background(), reads, results, stages, nil); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(t0)
		var sum time.Duration
		for i := range reads {
			sum += stages[i].Total()
		}
		if sum > wall {
			overshoot := float64(sum-wall) / float64(wall)
			if overshoot > 0.10 {
				t.Errorf("%s: batched stage totals %v exceed batch wall %v by %.0f%% (multiply-counted stage time?)",
					tool.Name(), sum, wall, overshoot*100)
			}
		}
	}
}
