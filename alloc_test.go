package bench

import (
	"context"
	"testing"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/store"
)

// TestHotPathAllocCeilings pins allocations per operation of the three hot
// paths no package-level test covers — both construction pipelines on the
// small cohort and the warm-restart snapshot load — at 1.2× the counts
// measured when the ceilings were set (40.3k, 8.2k and 17.0k). A return to
// per-window, per-chunk, per-gap or per-section buffers multiplies them.
func TestHotPathAllocCeilings(t *testing.T) {
	s := getSuite(t)
	names, seqs := s.Pop.AssemblyView()
	pcfg := build.DefaultPGGBConfig()
	pcfg.LayoutIterations = 2
	mcfg := build.DefaultMCConfig()
	mcfg.LayoutIterations = 2

	giraffe, err := pipeline.NewVgGiraffe(s.Pop.Graph, s.Cfg.K, s.Cfg.W)
	if err != nil {
		t.Fatal(err)
	}
	data := &store.SnapshotData{
		ID: "alloc", Tool: string(mapserve.ToolGiraffe), K: s.Cfg.K, W: s.Cfg.W,
		Graph: s.Pop.Graph, Index: giraffe.GraphIndex(), Haplotypes: giraffe.Haplotypes(),
	}
	image, err := data.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Publish(image); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		ceiling float64
		op      func() error
	}{
		{"build.PGGB", 48_300, func() error {
			_, err := build.PGGB(context.Background(), names, seqs, pcfg, nil)
			return err
		}},
		{"build.MinigraphCactus", 9_870, func() error {
			_, err := build.MinigraphCactus(context.Background(), names, seqs, mcfg, nil)
			return err
		}},
		{"mapserve.SnapshotFromStore", 20_400, func() error {
			_, secs, err := dir.LoadCurrent()
			if err != nil {
				return err
			}
			_, err = mapserve.SnapshotFromStore(secs)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(2, func() {
				if err := tc.op(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.ceiling {
				t.Errorf("%s: %.0f allocs/op, ceiling %.0f", tc.name, allocs, tc.ceiling)
			}
		})
	}
}
