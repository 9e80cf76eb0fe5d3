package main

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTailPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, err := tailPercentile(xs, 0.99); err != nil || !near(v, 989.01, 0.01) {
		t.Fatalf("p99 of 0..999 = %v, %v", v, err)
	}
	// 999 samples leave 9 beyond p99: not a tail, refuse.
	if _, err := tailPercentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples was reported with 9 samples beyond it")
	}
	if _, err := tailPercentile(xs[:100], 0.90); err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) → [3.5, 13.5, 31.0];
	// median 13.5, so the spread is 27.5/13.5.
	xs := []float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}
	if got, want := quartileSpread(xs), 27.5/13.5; !near(got, want, 1e-12) {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Fatal("one sample has no spread")
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 4 * ms, End: 7 * ms}, // overlaps a by 1ms
		{ID: 4, Parent: 2, Name: "a.kernel", Start: 1 * ms, End: 3 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[uint32]time.Duration{1: 4 * time.Millisecond, 2: 2 * time.Millisecond, 3: 3 * time.Millisecond, 4: 2 * time.Millisecond} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	ts := &traceSet{ops: [][]span{spans}}
	// Non-root self times: a 2 + b 3 + kernel 2 = 7 of the root's 10.
	if got := ts.coverage(); !near(got, 0.7, 1e-9) {
		t.Errorf("coverage = %v, want 0.7", got)
	}
}

func TestOpTraceClipsChildren(t *testing.T) {
	epoch := time.Now()
	tr := &opTrace{epoch: epoch}
	root := tr.add(0, "root", epoch, 10*time.Millisecond)
	tr.add(root, "late", epoch.Add(8*time.Millisecond), 5*time.Millisecond)
	if got := tr.spans[1].End; got != (10 * time.Millisecond).Nanoseconds() {
		t.Errorf("child overshooting its parent ends at %d, want the parent's end", got)
	}
	var none *opTrace
	none.count(none.add(0, "x", epoch, time.Second), "k", 1) // nil trace records nothing
}

func TestCheckVerdicts(t *testing.T) {
	bound := 0.05
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: &bound}
	tight := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"identical", lower, tight, tight, "same"},
		{"3% slower is inside the bound", lower, tight, scale(tight, 1.03), "same"},
		{"10% slower", lower, tight, scale(tight, 1.10), "worse"},
		{"10% faster", lower, tight, scale(tight, 0.90), "same"},
		{"10% less throughput", higher, tight, scale(tight, 0.90), "worse"},
		{"10% more throughput", higher, tight, scale(tight, 1.10), "same"},
		{"spread wider than the bound", lower, wide, wide, "unresolved"},
		{"wide but every run better", lower, wide, scale(wide, 0.4), "same"},
		{"wide but every run worse", lower, wide, scale(wide, 2.5), "worse"},
		{"wide and median worse", lower, wide, scale(wide, 1.2), "unresolved"},
		{"single runs", lower, []float64{100}, []float64{104}, "same"},
		{"no runs", lower, nil, tight, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSmoke runs every workload end to end on tiny inputs: the traced plan
// of each, plus one untraced run, and checks the emitted names against
// BENCHMARK.json, that no op failed, and the span reconciliation.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run on fewer than 2 cores")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var declared, table []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		table = append(table, w.name)
	}
	if !equalSets(declared, table) {
		t.Fatalf("BENCHMARK.json workloads %v, workload table %v", declared, table)
	}
	p := params{seed: 42, smoke: true}
	produced := map[string]bool{}
	for _, w := range workloads {
		res, err := runWorkload(w, p, 1, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, res.failed, res.attempted)
		}
		if _, err := resultLine(res, spec.PerLayer); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name := range res.metrics {
			produced[name] = true
		}
		// The layers' reported durations must sum to what the caller saw.
		// The floors leave room for the race detector and a loaded host,
		// which delay the caller's wake-up but not the durations the system
		// reports (0.98 → 0.89 on serve_short under -race); README's
		// within-10% figures come from full runs. serve_long is the
		// documented exception ("What the trace found"): a query's MapTime
		// is its apportioned share of the lane-group call, so the
		// co-rider's share shows as mapserve overhead (0.59 → 0.50).
		lo := 0.75
		if w.name == "serve_long" {
			lo = 0.35
		}
		if c := res.metrics["bench.trace_coverage_share"]; c < lo || c > 1.1 {
			t.Errorf("%s: bench.trace_coverage_share = %.3f, want within [%.2f, 1.1]", w.name, c, lo)
		}
	}
	for _, m := range spec.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload's traced run produced it", m.Name)
		}
	}

	w, _ := findWorkload("serve_short")
	res, err := runWorkload(w, p, 1.5, false)
	if err != nil {
		t.Fatalf("serve_short untraced: %v", err)
	}
	if res.failed != 0 {
		t.Errorf("serve_short untraced: %d ops failed", res.failed)
	}
	var got, want []string
	for name, v := range res.metrics {
		got = append(got, name)
		if v <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", name, v)
		}
	}
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name)
	}
	if !equalSets(got, want) {
		t.Errorf("untraced run emitted %v, BENCHMARK.json declares %v", got, want)
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
