package core

import (
	"bytes"
	"context"
	"testing"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/pipeline"
)

// TestScenarioCharacterization is the catalog acceptance test: every
// scenario must run the Fig. 3 smoke suite (both construction pipelines)
// and map reads with all four mapping kernels, each completing with nonzero
// mapped reads. Adversarial means slower or messier — never broken.
func TestScenarioCharacterization(t *testing.T) {
	for _, sc := range gensim.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			suite, err := NewScenarioSuite(Small, sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(suite.ShortReads) == 0 || len(suite.LongReads) == 0 {
				t.Fatal("scenario produced empty read sets")
			}

			// Both construction pipelines complete on the scenario's cohort.
			tbl, err := suite.Fig3()
			if err != nil {
				t.Fatalf("Fig3: %v", err)
			}
			if len(tbl.Rows) != 2 {
				t.Fatalf("Fig3 rows = %d, want both pipelines", len(tbl.Rows))
			}

			// All four mapping kernels complete with nonzero mapped reads.
			g := suite.Pop.Graph
			// Cap the short-read workload by total bases, not count: GSSW's
			// cost grows ~quadratically with read length, and ultralong-hifi
			// makes these reads 8 kb each.
			short := suite.ShortReads[:0:0]
			for bases := 0; len(short) < len(suite.ShortReads) && len(short) < 12 && bases < 16_000; {
				r := suite.ShortReads[len(short)]
				short = append(short, r)
				bases += len(r.Seq)
			}
			vm, err := pipeline.NewVgMap(g, suite.Cfg.K, suite.Cfg.W)
			if err != nil {
				t.Fatal(err)
			}
			gf, err := pipeline.NewVgGiraffe(g, suite.Cfg.K, suite.Cfg.W)
			if err != nil {
				t.Fatal(err)
			}
			ga, err := pipeline.NewGraphAligner(g, suite.Cfg.K, suite.Cfg.W)
			if err != nil {
				t.Fatal(err)
			}
			mg, err := pipeline.NewMinigraph(g, suite.Cfg.K, suite.Cfg.W, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				tool  pipeline.ContextTool
				reads []gensim.Read
			}{
				{vm, short}, {gf, short}, {ga, suite.LongReads}, {mg, suite.LongReads},
			} {
				mapped := 0
				for _, rd := range tc.reads {
					if res, _, _ := tc.tool.MapCtx(context.Background(), rd.Seq, nil); res.Mapped {
						mapped++
					}
				}
				if mapped == 0 {
					t.Errorf("%s mapped 0 of %d reads under scenario %s", tc.tool.Name(), len(tc.reads), sc.Name)
				}
			}
		})
	}
}

// TestScenarioSuiteBaselineIdentity pins that the baseline scenario IS the
// stock suite: same population bytes, same reads — the control arm every
// adversarial result is read against.
func TestScenarioSuiteBaselineIdentity(t *testing.T) {
	sc, err := gensim.LookupScenario("baseline")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewScenarioSuite(Small, sc)
	if err != nil {
		t.Fatal(err)
	}
	b := getSuite(t)
	if !bytes.Equal(a.Pop.Ref, b.Pop.Ref) {
		t.Fatal("baseline scenario reference differs from NewSuite")
	}
	if len(a.ShortReads) != len(b.ShortReads) || !bytes.Equal(a.ShortReads[0].Seq, b.ShortReads[0].Seq) {
		t.Fatal("baseline scenario reads differ from NewSuite")
	}
}
