package pipeline

import (
	"testing"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/seqmap"
)

// testPop builds a small population shared by the tool tests.
func testPop(t testing.TB) *gensim.Population {
	t.Helper()
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 30_000
	cfg.Haplotypes = 4
	p, err := gensim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func shortReads(t testing.TB, p *gensim.Population, n int) []gensim.Read {
	t.Helper()
	reads, err := p.SimulateReads(gensim.ShortReadConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

func TestVgMapMapsShortReads(t *testing.T) {
	p := testPop(t)
	tool, err := NewVgMap(p.Graph, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	reads := shortReads(t, p, 30)
	mapped := 0
	for _, r := range reads {
		res, st := tool.Map(r.Seq, nil)
		if res.Mapped {
			mapped++
			// A 150 bp read with ~0.2% errors should align nearly fully:
			// score ≥ matches - penalties ⇒ well above half the length.
			if res.Score < len(r.Seq)/2 {
				t.Fatalf("read %s score %d too low", r.Name, res.Score)
			}
		}
		if st.Total() <= 0 {
			t.Fatal("stage times not recorded")
		}
	}
	if mapped < len(reads)*8/10 {
		t.Fatalf("VgMap mapped only %d/%d reads", mapped, len(reads))
	}
}

func TestVgMapCapturesGSSWInputs(t *testing.T) {
	p := testPop(t)
	tool, err := NewVgMap(p.Graph, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	var cap []GSSWInput
	tool.Capture = &cap
	reads := shortReads(t, p, 5)
	for _, r := range reads {
		tool.Map(r.Seq, nil)
	}
	if len(cap) == 0 {
		t.Fatal("no GSSW inputs captured")
	}
	for _, in := range cap {
		if !in.Sub.IsAcyclic() {
			t.Fatal("captured GSSW subgraph must be acyclic")
		}
		if in.Sub.NumNodes() == 0 || len(in.Query) == 0 {
			t.Fatal("degenerate capture")
		}
	}
}

func TestVgGiraffeFilterDominates(t *testing.T) {
	p := testPop(t)
	tool, err := NewVgGiraffe(p.Graph, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	var cap []GBWTInput
	tool.Capture = &cap
	reads := shortReads(t, p, 30)
	var total seqmap.StageTimes
	mapped := 0
	for _, r := range reads {
		res, st := tool.Map(r.Seq, nil)
		total.Add(st)
		if res.Mapped {
			mapped++
			if res.EditDistance > len(r.Seq)/3 {
				t.Fatalf("read %s edit distance %d too high", r.Name, res.EditDistance)
			}
		}
	}
	if mapped < len(reads)*7/10 {
		t.Fatalf("Giraffe mapped only %d/%d reads", mapped, len(reads))
	}
	if len(cap) == 0 {
		t.Fatal("no GBWT queries captured")
	}
}

func TestGraphAlignerAlignDominates(t *testing.T) {
	p := testPop(t)
	tool, err := NewGraphAligner(p.Graph, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	var cap []GBVInput
	tool.Capture = &cap
	// Long-ish reads (but short enough for a fast test).
	reads, err := p.SimulateReads(gensim.ReadConfig{Count: 8, Length: 1000, SubRate: 0.006, IndelRate: 0.004, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var total seqmap.StageTimes
	mapped := 0
	for _, r := range reads {
		res, st := tool.Map(r.Seq, nil)
		total.Add(st)
		if res.Mapped {
			mapped++
		}
	}
	if mapped < len(reads)/2 {
		t.Fatalf("GraphAligner mapped only %d/%d reads", mapped, len(reads))
	}
	// The tool's signature: alignment takes the bulk of the time (paper:
	// ~90%).
	if total.Align < total.Seed+total.Chain+total.Filter {
		t.Fatalf("alignment should dominate: %+v", total)
	}
	if len(cap) == 0 {
		t.Fatal("no GBV inputs captured")
	}
	for _, in := range cap {
		if len(in.Query) > 64 {
			t.Fatal("GBV chunks must be ≤ 64 bp")
		}
	}
}

func TestMinigraphBridgesWithGWFA(t *testing.T) {
	p := testPop(t)
	tool, err := NewMinigraph(p.Graph, 15, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	var cap []GWFAInput
	var gwfaTime seqmap.StageTimes
	tool.Capture = &cap
	tool.GWFATime = &gwfaTime
	reads, err := p.SimulateReads(gensim.ReadConfig{Count: 6, Length: 2000, SubRate: 0.006, IndelRate: 0.004, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	mapped := 0
	var total seqmap.StageTimes
	for _, r := range reads {
		res, st := tool.Map(r.Seq, nil)
		total.Add(st)
		if res.Mapped {
			mapped++
		}
	}
	if mapped < len(reads)/2 {
		t.Fatalf("Minigraph mapped only %d/%d reads", mapped, len(reads))
	}
	if len(cap) == 0 {
		t.Fatal("no GWFA bridge inputs captured")
	}
	if gwfaTime.Chain <= 0 {
		t.Fatal("GWFA kernel time not recorded")
	}
	if gwfaTime.Chain > total.Chain {
		t.Fatal("kernel time cannot exceed its stage")
	}
	if tool.Name() != "Minigraph-lr" {
		t.Fatal("name wrong")
	}
	crTool, _ := NewMinigraph(p.Graph, 15, 10, true)
	if crTool.Name() != "Minigraph-cr" {
		t.Fatal("cr name wrong")
	}
}

func TestToolsOnUnmappableRead(t *testing.T) {
	p := testPop(t)
	junk := make([]byte, 150)
	for i := range junk {
		junk[i] = "AC"[i%2] // dinucleotide repeat unlikely to seed uniquely
	}
	tools := []Tool{}
	if tl, err := NewVgMap(p.Graph, 15, 10); err == nil {
		tools = append(tools, tl)
	}
	if tl, err := NewVgGiraffe(p.Graph, 15, 10); err == nil {
		tools = append(tools, tl)
	}
	for _, tool := range tools {
		res, _ := tool.Map(junk, nil)
		_ = res // must simply not crash; mapping may or may not succeed
	}
}

// TestSeedingUsesIndexWindow pins the seeding stage to the minimizer scheme
// its index was built with: read minimizers taken with any other window
// either miss index entries (narrower index window) or look up hashes the
// index never stored (wider). For an error-free read off a haplotype path
// every read minimizer is a path minimizer, so all of them must hit.
func TestSeedingUsesIndexWindow(t *testing.T) {
	p := testPop(t)
	const k = 15
	hap := p.Graph.Paths()[1]
	read := p.Graph.PathSeq(hap)[4000:4150]
	for _, w := range []int{5, 10, 20} {
		tool, err := NewVgGiraffe(p.Graph, k, w)
		if err != nil {
			t.Fatal(err)
		}
		var s seedScratch
		s.seedInto(nil, tool.idx, read, nil)
		want, err := minimizer.Compute(read, k, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.ms) != len(want) {
			t.Errorf("w=%d: seeded with %d read minimizers, the index scheme yields %d", w, len(s.ms), len(want))
		}
		for _, m := range s.ms {
			if len(tool.idx.Lookup(m.Hash)) == 0 {
				t.Errorf("w=%d: read minimizer at %d is not in the index", w, m.Pos)
			}
		}
		if res, _ := tool.Map(read, nil); !res.Mapped {
			t.Errorf("w=%d: giraffe did not map an error-free haplotype read", w)
		}
	}
}
