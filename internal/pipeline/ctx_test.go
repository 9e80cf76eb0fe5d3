package pipeline

import (
	"context"
	"testing"

	"pangenomicsbench/internal/gensim"
)

// ctxTestTools builds all four context-aware tools over one small graph.
func ctxTestTools(t *testing.T) (*gensim.Population, []ContextTool) {
	t.Helper()
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 20_000
	cfg.Haplotypes = 4
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, w := 15, 10
	giraffe, err := NewVgGiraffe(pop.Graph, k, w)
	if err != nil {
		t.Fatal(err)
	}
	vgmap, err := NewVgMap(pop.Graph, k, w)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := NewGraphAligner(pop.Graph, k, w)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMinigraph(pop.Graph, k, w, false)
	if err != nil {
		t.Fatal(err)
	}
	return pop, []ContextTool{giraffe, vgmap, ga, mg}
}

// TestMapCtxCanceled verifies every tool returns ctx.Err and no mapping for
// a pre-canceled context, and that the cancellation does not wedge later
// uncancelled maps on the same tool.
func TestMapCtxCanceled(t *testing.T) {
	pop, tools := ctxTestTools(t)
	reads, err := pop.SimulateReads(gensim.ReadConfig{Count: 1, Length: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	read := reads[0].Seq

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tool := range tools {
		res, _, err := tool.MapCtx(ctx, read, nil)
		if err == nil {
			t.Errorf("%s: canceled MapCtx returned no error", tool.Name())
		}
		if res.Mapped {
			t.Errorf("%s: canceled MapCtx still mapped the read", tool.Name())
		}
		// The tool must still work with a live context afterwards.
		if _, _, err := tool.MapCtx(context.Background(), read, nil); err != nil {
			t.Errorf("%s: post-cancel map failed: %v", tool.Name(), err)
		}
	}
}
