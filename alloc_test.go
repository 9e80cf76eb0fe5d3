package bench

import (
	"context"
	"testing"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/store"
)

// TestHotPathAllocCeilings pins allocations per operation of the four hot
// paths no package-level test covers — both construction pipelines on the
// small cohort, the warm-restart snapshot load, and one pass of the suite's
// 40 short reads through the query service — at 1.2× the counts measured
// when the ceilings were set (40.3k, 8.2k, 17.0k and 362). A return to
// per-window, per-chunk, per-gap or per-section buffers multiplies the first
// three; the last is ~9 per query, 3 of them the service's own.
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

	// A warm, untraced service over the same Giraffe tool: per query it adds
	// the pending slot, its done channel and the response to the kernel's.
	snap, err := mapserve.NewSnapshotWithTool("alloc", s.Pop.Graph, giraffe)
	if err != nil {
		t.Fatal(err)
	}
	reg := &mapserve.Registry{}
	if _, err := reg.Publish(snap); err != nil {
		t.Fatal(err)
	}
	svc := mapserve.New(reg, mapserve.Config{Workers: 1})
	defer svc.Close()

	for _, tc := range []struct {
		name    string
		ceiling float64
		// pooled: the count rests on a sync.Pool staying warm, which it does
		// not under -race (a quarter of all Puts are dropped).
		pooled bool
		op     func() error
	}{
		{"build.PGGB", 48_300, false, func() error {
			_, err := build.PGGB(context.Background(), names, seqs, pcfg, nil)
			return err
		}},
		{"build.MinigraphCactus", 9_870, false, func() error {
			_, err := build.MinigraphCactus(context.Background(), names, seqs, mcfg, nil)
			return err
		}},
		{"mapserve.SnapshotFromStore", 20_400, false, func() error {
			_, secs, err := dir.LoadCurrent()
			if err != nil {
				return err
			}
			_, err = mapserve.SnapshotFromStore(secs)
			return err
		}},
		{"mapserve.Service.Map", 434, true, func() error {
			for _, r := range s.ShortReads {
				if _, err := svc.Map(context.Background(), r.Seq); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.pooled {
				t.Skip("pooled scratch does not stay warm under -race")
			}
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
