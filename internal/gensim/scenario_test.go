package gensim

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// scenarioBase is the reduced-size base config the scenario tests reshape.
func scenarioBase() Config {
	cfg := DefaultConfig()
	cfg.RefLen = 20_000
	cfg.Haplotypes = 4
	return cfg
}

func TestScenarioCatalog(t *testing.T) {
	names := ScenarioNames()
	want := []string{"baseline", "contaminated", "flash-crowd", "high-cycle",
		"skewed-tenant", "sv-dense", "ultralong-hifi"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("catalog names = %v, want %v", names, want)
	}
	if len(Scenarios()) != len(names) {
		t.Fatalf("Scenarios() has %d entries, names has %d", len(Scenarios()), len(names))
	}
	for _, s := range Scenarios() {
		if s.Summary == "" || s.FailureMode == "" {
			t.Errorf("scenario %q is not self-describing: %+v", s.Name, s)
		}
		if s.Describe() == "" {
			t.Errorf("scenario %q has empty description", s.Name)
		}
	}
	if _, err := LookupScenario("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario must be rejected")
	}
	if s, err := LookupScenario("sv-dense"); err != nil || s.Name != "sv-dense" {
		t.Fatalf("lookup sv-dense = %+v, %v", s, err)
	}
}

// scenarioArtifacts generates every derived artifact of one scenario from
// fixed seeds — the byte-comparison unit of the determinism test.
type scenarioArtifacts struct {
	ref      []byte
	variants []Variant
	haps     [][]byte
	reads    []Read
	trace    []TraceRequest
	queries  []ReadQuery
	arrivals []time.Duration
}

func generateScenario(t *testing.T, sc Scenario) scenarioArtifacts {
	t.Helper()
	pop, err := Simulate(sc.PopConfig(scenarioBase()))
	if err != nil {
		t.Fatalf("%s: Simulate: %v", sc.Name, err)
	}
	reads, err := pop.SimulateReads(sc.ReadsConfig(ShortReadConfig(64)))
	if err != nil {
		t.Fatalf("%s: SimulateReads: %v", sc.Name, err)
	}
	trace, err := pop.Trace(DefaultTraceConfig())
	if err != nil {
		t.Fatalf("%s: Trace: %v", sc.Name, err)
	}
	rtCfg := sc.ReadTraceConfig(DefaultReadTraceConfig())
	rtCfg.Queries = 64
	queries, err := pop.ReadQueryTrace(rtCfg)
	if err != nil {
		t.Fatalf("%s: ReadQueryTrace: %v", sc.Name, err)
	}
	arrivals, err := Arrivals(sc.ArrivalConfig(DefaultArrivalConfig(64)))
	if err != nil {
		t.Fatalf("%s: Arrivals: %v", sc.Name, err)
	}
	a := scenarioArtifacts{
		ref:      pop.Ref,
		variants: pop.Variants,
		reads:    reads,
		trace:    trace,
		queries:  queries,
		arrivals: arrivals,
	}
	for _, h := range pop.Haplotypes {
		a.haps = append(a.haps, h.Seq)
	}
	return a
}

func assertArtifactsEqual(t *testing.T, name, when string, a, b scenarioArtifacts) {
	t.Helper()
	if !bytes.Equal(a.ref, b.ref) {
		t.Fatalf("%s: reference differs %s", name, when)
	}
	if !reflect.DeepEqual(a.variants, b.variants) {
		t.Fatalf("%s: variant set differs %s", name, when)
	}
	if len(a.haps) != len(b.haps) {
		t.Fatalf("%s: haplotype count differs %s", name, when)
	}
	for i := range a.haps {
		if !bytes.Equal(a.haps[i], b.haps[i]) {
			t.Fatalf("%s: haplotype %d differs %s", name, i, when)
		}
	}
	if !reflect.DeepEqual(a.reads, b.reads) {
		t.Fatalf("%s: read set differs %s", name, when)
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("%s: build trace differs %s", name, when)
	}
	if !reflect.DeepEqual(a.queries, b.queries) {
		t.Fatalf("%s: query trace differs %s", name, when)
	}
	if !reflect.DeepEqual(a.arrivals, b.arrivals) {
		t.Fatalf("%s: arrival curve differs %s", name, when)
	}
}

// TestScenarioDeterminism pins the contract a benchmark catalog lives on:
// every scenario with a fixed seed yields byte-identical populations, read
// sets, traces, and arrival curves across repeated generations and across
// GOMAXPROCS 1/4/8.
func TestScenarioDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, sc := range Scenarios() {
		first := generateScenario(t, sc)
		assertArtifactsEqual(t, sc.Name, "across two generations", first, generateScenario(t, sc))
		for _, procs := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(procs)
			assertArtifactsEqual(t, sc.Name, "at GOMAXPROCS="+string(rune('0'+procs)),
				first, generateScenario(t, sc))
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestDefaultConfigUnchangedByScenarioKnobs pins that the new Config fields
// at their zero values reproduce the exact pre-catalog population: legacy
// figure/benchmark inputs must not drift.
func TestDefaultConfigUnchangedByScenarioKnobs(t *testing.T) {
	a, err := Simulate(scenarioBase())
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenarioBase()
	cfg.SVAlleles = 1 // explicit ≤1 is the same as unset
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Ref, b.Ref) || len(a.Variants) != len(b.Variants) {
		t.Fatal("SVAlleles=1 must not perturb the rng stream")
	}
}

func TestMultiAllelicSVGroups(t *testing.T) {
	sc, err := LookupScenario("sv-dense")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := Simulate(sc.PopConfig(scenarioBase()))
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int][]int{} // group id → variant indices
	for i, v := range pop.Variants {
		if v.Group > 0 {
			groups[v.Group] = append(groups[v.Group], i)
		}
	}
	if len(groups) == 0 {
		t.Fatal("sv-dense produced no multi-allelic groups at 20kb")
	}
	for g, idxs := range groups {
		if len(idxs) != 3 {
			t.Fatalf("group %d has %d alleles, want 3", g, len(idxs))
		}
		pos := pop.Variants[idxs[0]].Pos
		for _, i := range idxs {
			v := pop.Variants[i]
			if v.Pos != pos || v.Kind != Insertion {
				t.Fatalf("group %d allele %d: pos=%d kind=%v, want pos=%d Insertion", g, i, v.Pos, v.Kind, pos)
			}
		}
		// At most one allele per haplotype.
		for h, hap := range pop.Haplotypes {
			carried := 0
			for _, i := range idxs {
				if hap.Carries[i] {
					carried++
				}
			}
			if carried > 1 {
				t.Fatalf("haplotype %d carries %d alleles of group %d", h, carried, g)
			}
		}
	}
	// The central gensim invariant must survive multi-allelic sites: every
	// haplotype's graph path spells exactly its sequence.
	paths := pop.Graph.Paths()
	for i, h := range pop.Haplotypes {
		if !bytes.Equal(pop.Graph.PathSeq(paths[i]), h.Seq) {
			t.Fatalf("haplotype %d path does not spell its sequence", i)
		}
	}
	if err := pop.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatGenome(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := repeatGenome(rng, 50_000, 0.4, 24)
	if len(g) != 50_000 {
		t.Fatalf("repeat genome length %d, want 50000", len(g))
	}
	// Repeat content shows up as duplicated 24-mers: a repeat-rich genome
	// must have meaningfully fewer distinct k-mers than a random one.
	distinct := func(s []byte, k int) int {
		seen := map[string]bool{}
		for i := 0; i+k <= len(s); i++ {
			seen[string(s[i:i+k])] = true
		}
		return len(seen)
	}
	rnd := RandomGenome(rand.New(rand.NewSource(2)), 50_000)
	dr, dg := distinct(rnd, 24), distinct(g, 24)
	if float64(dg) > 0.9*float64(dr) {
		t.Fatalf("repeat genome has %d distinct 24-mers vs %d random — not repetitive enough", dg, dr)
	}
}

func TestSkewedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 8)
	for i := 0; i < 10_000; i++ {
		idx := skewedIndex(rng, 8, 0.35)
		if idx < 0 || idx >= 8 {
			t.Fatalf("skewedIndex out of range: %d", idx)
		}
		counts[idx]++
	}
	if counts[0] < 5_000 {
		t.Fatalf("hot index got %d/10000 draws, want a clear majority", counts[0])
	}
	for i := 1; i < 8; i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("skew not monotone: counts=%v", counts)
		}
	}
}

func TestContaminatedReads(t *testing.T) {
	pop, err := Simulate(scenarioBase())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ShortReadConfig(400)
	cfg.Contamination = 0.3
	reads, err := pop.SimulateReads(cfg)
	if err != nil {
		t.Fatal(err)
	}
	contaminants := 0
	for _, r := range reads {
		if r.Hap == -1 {
			contaminants++
			if r.Pos != -1 || len(r.Seq) != cfg.Length {
				t.Fatalf("contaminant read malformed: %+v", r)
			}
		} else if r.Hap < 0 || r.Hap >= len(pop.Haplotypes) {
			t.Fatalf("clean read has bad truth: %+v", r)
		}
	}
	if contaminants < 60 || contaminants > 180 {
		t.Fatalf("contaminants = %d of 400, want ≈120", contaminants)
	}
	cfg.Contamination = 1.5
	if _, err := pop.SimulateReads(cfg); err == nil {
		t.Fatal("Contamination > 1 must be rejected")
	}
}

func TestArrivals(t *testing.T) {
	cfg := ArrivalConfig{Queries: 2_000, BaseRate: 1_000, Bursts: 2,
		BurstRate: 20_000, BurstLen: 200 * time.Millisecond, Seed: 4}
	offs, err := Arrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != cfg.Queries {
		t.Fatalf("arrivals = %d, want %d", len(offs), cfg.Queries)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatalf("arrival curve not monotone at %d", i)
		}
	}
	// Bursts must compress inter-arrival gaps: the shortest 10% of gaps
	// should be far below the base-rate mean gap (1ms at 1000 q/s).
	burstGaps := 0
	for i := 1; i < len(offs); i++ {
		if offs[i]-offs[i-1] < 200*time.Microsecond {
			burstGaps++
		}
	}
	if burstGaps < len(offs)/20 {
		t.Fatalf("only %d/%d burst-tight gaps — burst windows not taking effect", burstGaps, len(offs))
	}
	if _, err := Arrivals(ArrivalConfig{Queries: 0, BaseRate: 1}); err == nil {
		t.Fatal("zero queries must be rejected")
	}
	if _, err := Arrivals(ArrivalConfig{Queries: 1, BaseRate: 0}); err == nil {
		t.Fatal("zero rate must be rejected")
	}
	if _, err := Arrivals(ArrivalConfig{Queries: 1, BaseRate: 10, Bursts: 1, BurstRate: 5, BurstLen: time.Second}); err == nil {
		t.Fatal("BurstRate below BaseRate must be rejected")
	}
}
