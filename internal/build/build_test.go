package build

import (
	"bytes"
	"context"
	"testing"
	"time"

	"pangenomicsbench/internal/perf"
)

func TestStageBreakdownTotal(t *testing.T) {
	b := StageBreakdown{
		Alignment: time.Second,
		Induction: 2 * time.Second,
		Polishing: 3 * time.Second,
		Layout:    4 * time.Second,
		TCTime:    time.Second, // nested, must not double-count
		POATime:   time.Second,
		GWFA:      time.Second,
	}
	if got, want := b.Total(), 10*time.Second; got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
}

func TestPGGBSmall(t *testing.T) {
	names, seqs := testAssemblies(t, 8000, 4)
	cfg := DefaultPGGBConfig()
	cfg.LayoutIterations = 2
	res, err := PGGB(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd.Pipeline != "PGGB" {
		t.Fatalf("pipeline = %q", bd.Pipeline)
	}
	for _, d := range []struct {
		name string
		dur  time.Duration
	}{
		{"Alignment", bd.Alignment}, {"Induction", bd.Induction},
		{"Polishing", bd.Polishing}, {"Layout", bd.Layout},
		{"TCTime", bd.TCTime}, {"POATime", bd.POATime},
	} {
		if d.dur <= 0 {
			t.Errorf("stage %s not timed: %v", d.name, d.dur)
		}
	}
	if bd.TCTime > bd.Induction {
		t.Errorf("TC time %v exceeds its induction stage %v", bd.TCTime, bd.Induction)
	}
	if bd.POATime > bd.Polishing {
		t.Errorf("POA time %v exceeds its polishing stage %v", bd.POATime, bd.Polishing)
	}
	if res.Graph == nil || res.Layout == nil {
		t.Fatal("missing graph or layout")
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("induced graph invalid: %v", err)
	}
	// seqwish induction must thread every assembly through the graph
	// losslessly.
	paths := res.Graph.Paths()
	if len(paths) != len(seqs) {
		t.Fatalf("graph has %d paths, want %d", len(paths), len(seqs))
	}
	for i, p := range paths {
		if got := string(res.Graph.PathSeq(p)); got != string(seqs[i]) {
			t.Fatalf("path %s does not spell its assembly (len %d vs %d)", p.Name, len(got), len(seqs[i]))
		}
	}
	st := res.Stats
	if st.MatchBlocks == 0 || st.Closures == 0 || st.Nodes == 0 || st.PolishBlocks == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	// Matching haplotypes must compress the graph well below the raw
	// character count.
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	if st.Closures >= total/2 {
		t.Errorf("transclosure barely compressed: %d closures from %d chars", st.Closures, total)
	}
}

func TestPGGBValidation(t *testing.T) {
	if _, err := PGGB(context.Background(), []string{"a"}, [][]byte{[]byte("ACGT")}, DefaultPGGBConfig(), nil); err == nil {
		t.Fatal("single assembly must error")
	}
	if _, err := PGGB(context.Background(), []string{"a", "b"}, [][]byte{[]byte("ACGT")}, DefaultPGGBConfig(), nil); err == nil {
		t.Fatal("name/sequence count mismatch must error")
	}
}

func TestMinigraphCactusSmall(t *testing.T) {
	names, seqs := testAssemblies(t, 8000, 4)
	cfg := DefaultMCConfig()
	cfg.LayoutIterations = 2
	res, err := MinigraphCactus(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd.Pipeline != "Minigraph-Cactus" {
		t.Fatalf("pipeline = %q", bd.Pipeline)
	}
	if bd.Alignment <= 0 || bd.Induction <= 0 || bd.Layout <= 0 {
		t.Fatalf("stages not timed: %+v", bd)
	}
	if bd.GWFA <= 0 {
		t.Error("GWFA bridging never ran")
	}
	if bd.GWFA > bd.Alignment {
		t.Errorf("GWFA time %v exceeds its alignment stage %v", bd.GWFA, bd.Alignment)
	}
	if res.Graph == nil {
		t.Fatal("missing graph")
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("grown graph invalid: %v", err)
	}
	// One embedded path per assembly: the backbone plus each mapped one.
	if got := len(res.Graph.Paths()); got != len(seqs) {
		t.Fatalf("graph has %d paths, want %d", got, len(seqs))
	}
	if res.Stats.Nodes == 0 || res.Stats.Edges == 0 {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}
}

func TestMinigraphCactusDeterministic(t *testing.T) {
	names, seqs := testAssemblies(t, 6000, 3)
	cfg := DefaultMCConfig()
	cfg.LayoutIterations = 0
	r1, err := MinigraphCactus(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MinigraphCactus(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("MC stats differ across identical runs:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
	if !bytes.Equal(gfaBytes(t, r1.Graph), gfaBytes(t, r2.Graph)) {
		t.Fatal("MC graphs differ across identical runs")
	}
}

func TestMinigraphCactusValidation(t *testing.T) {
	if _, err := MinigraphCactus(context.Background(), []string{"a"}, [][]byte{[]byte("ACGT")}, DefaultMCConfig(), nil); err == nil {
		t.Fatal("single assembly must error")
	}
	cfg := DefaultMCConfig()
	cfg.SegmentLen = 0
	if _, err := MinigraphCactus(context.Background(), []string{"a", "b"}, [][]byte{[]byte("ACGT"), []byte("ACGT")}, cfg, nil); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestMinigraphCactusThreadsProbe(t *testing.T) {
	names, seqs := testAssemblies(t, 4000, 3)
	cfg := DefaultMCConfig()
	cfg.LayoutIterations = 1
	probe := perf.NewProbe()
	if _, err := MinigraphCactus(context.Background(), names, seqs, cfg, probe); err != nil {
		t.Fatal(err)
	}
	if probe.Instructions() == 0 {
		t.Fatal("instrumented MC run recorded no instructions")
	}
}
