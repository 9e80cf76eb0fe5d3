package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/pipeline"
)

func TestParseChaos(t *testing.T) {
	got, err := ParseChaos(" swap, restart ")
	if err != nil || len(got) != 2 || got[0] != ChaosSwap || got[1] != ChaosRestart {
		t.Fatalf("ParseChaos = %v, %v", got, err)
	}
	if got, err := ParseChaos(""); err != nil || got != nil {
		t.Fatalf("empty chaos = %v, %v", got, err)
	}
	for _, in := range []string{"swap,meteor", "worker-kill"} {
		if _, err := ParseChaos(in); err == nil || !strings.Contains(err.Error(), "unknown chaos kind") {
			t.Fatalf("ParseChaos(%q) = %v, want an unknown-kind error", in, err)
		}
	}
}

func TestRestartRequiresStore(t *testing.T) {
	sc, err := gensim.LookupScenario("baseline")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Config{Scenario: sc, Chaos: []ChaosKind{ChaosRestart}})
	if err == nil || !strings.Contains(err.Error(), "StoreDir") {
		t.Fatalf("restart without a store = %v, want a StoreDir error", err)
	}
}

// TestSoakAcceptance is the short-mode soak acceptance run: replay the
// skewed-tenant scenario with one rebuild-and-publish hot-swap and one warm
// restart of the query tier, then assert zero lost in-flight queries, that
// every watermark/leak check passes, and that repeated reads answered by
// different snapshots mapped identically.
func TestSoakAcceptance(t *testing.T) {
	sc, err := gensim.LookupScenario("skewed-tenant")
	if err != nil {
		t.Fatal(err)
	}
	dur := 10 * time.Second
	if testing.Short() {
		dur = 4 * time.Second
	}
	var jsonl, progress bytes.Buffer
	res, err := Run(context.Background(), Config{
		Scenario: sc,
		RefLen:   12_000,
		Haps:     4,
		Duration: dur,
		Clients:  4,
		Chaos:    []ChaosKind{ChaosSwap, ChaosRestart},
		StoreDir: t.TempDir(),
		Sink:     obs.NewJSONLSink(&jsonl),
		Out:      &progress,
	})
	if err != nil {
		t.Fatalf("soak run: %v\n%s", err, progress.String())
	}

	if res.Issued == 0 || res.Mapped == 0 {
		t.Fatalf("soak issued %d / mapped %d queries — replay never got going", res.Issued, res.Mapped)
	}
	if res.Lost != 0 {
		t.Fatalf("%d in-flight queries lost", res.Lost)
	}
	if res.Swaps != 1 || res.Restarts != 1 {
		t.Fatalf("chaos events: %d swaps, %d restarts, want 1 each\n%s", res.Swaps, res.Restarts, progress.String())
	}
	// The rebuild swap published generation 2; the warm restart booted a
	// fresh registry from the store (its own generation counter restarts).
	if res.Generations == 0 {
		t.Fatal("no published generation at run end")
	}
	if res.Report.Failed() != 0 {
		t.Fatalf("soak report failed:\n%s\nprogress:\n%s", res.Report.Render(), progress.String())
	}
	if !hasCheck(res.Report, "repeat-identical") {
		t.Fatalf("repeat-identical check missing from report:\n%s", res.Report.Render())
	}
	if res.repeats.verified == 0 || res.repeats.crossSnapshot == 0 {
		t.Fatalf("repeat pairs: %+v, want some verified and some served by two snapshots", res.repeats)
	}

	// The JSONL flight log carries samples, both chaos events, and the report.
	kinds := map[string]int{}
	events := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("JSONL line does not parse: %v\n%s", err, line)
		}
		kind, _ := rec["kind"].(string)
		kinds[kind]++
		if kind == "chaos" {
			ev, _ := rec["event"].(string)
			events[ev]++
		}
	}
	if kinds["sample"] == 0 || kinds["report"] != 1 {
		t.Fatalf("flight log kinds = %v, want samples and exactly one report", kinds)
	}
	if events["swap"] != 1 || events["restart"] != 1 {
		t.Fatalf("flight log chaos events = %v, want one swap and one restart", events)
	}
}

// TestSoakShedStormExcluded pins the chaos-shed accounting: a deliberate
// storm sheds queries, yet the organic shed-rate check still passes because
// chaos sheds are counted under their own counter.
func TestSoakShedStormExcluded(t *testing.T) {
	if testing.Short() {
		t.Skip("second soak run; covered by TestSoakAcceptance in short mode")
	}
	sc, err := gensim.LookupScenario("baseline")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Scenario: sc,
		RefLen:   12_000,
		Haps:     4,
		Duration: 4 * time.Second,
		Clients:  4,
		Chaos:    []ChaosKind{ChaosShed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Storms != 1 {
		t.Fatalf("storms = %d, want 1", res.Storms)
	}
	if res.Metrics.Counters["mapserve.shed_chaos"] == 0 {
		t.Fatal("shed storm injected no chaos sheds — storm window missed all traffic")
	}
	if res.Report.Failed() != 0 {
		t.Fatalf("report failed despite chaos-shed exclusion:\n%s", res.Report.Render())
	}
}

func hasCheck(r obs.SoakReport, name string) bool {
	for _, c := range r.Checks {
		if c.Name == name {
			return true
		}
	}
	return false
}

// TestCompareRepeats pins the repeat-identical comparison: only pairs where
// both the repeat and its original mapped count, a changed result fails the
// check, and pairs answered by different snapshots are tallied.
func TestCompareRepeats(t *testing.T) {
	hit := func(node graph.NodeID, snap string, gen uint64) served {
		return served{mapped: true, result: pipeline.Result{Mapped: true, Node: node}, snapshotID: snap, generation: gen}
	}
	fresh := gensim.ReadQuery{Repeat: -1}
	repeatOf := func(i int) gensim.ReadQuery { return gensim.ReadQuery{Repeat: i} }
	tests := []struct {
		name  string
		trace []gensim.ReadQuery
		out   []served
		want  repeatStats
	}{
		{"no repeats", []gensim.ReadQuery{fresh, fresh}, []served{hit(1, "a", 1), hit(2, "a", 1)}, repeatStats{}},
		{"identical same snapshot", []gensim.ReadQuery{fresh, repeatOf(0)}, []served{hit(1, "a", 1), hit(1, "a", 1)},
			repeatStats{verified: 1}},
		{"identical across a swap", []gensim.ReadQuery{fresh, repeatOf(0)}, []served{hit(1, "a", 1), hit(1, "b", 2)},
			repeatStats{verified: 1, crossSnapshot: 1}},
		{"same ID after a restart", []gensim.ReadQuery{fresh, repeatOf(0)}, []served{hit(1, "b", 2), hit(1, "b", 1)},
			repeatStats{verified: 1, crossSnapshot: 1}},
		{"planted mismatch", []gensim.ReadQuery{fresh, repeatOf(0), repeatOf(0)}, []served{hit(1, "a", 1), hit(1, "a", 1), hit(7, "b", 2)},
			repeatStats{verified: 2, crossSnapshot: 1, mismatches: 1}},
		{"original shed or failed", []gensim.ReadQuery{fresh, repeatOf(0)}, []served{{}, hit(7, "a", 1)}, repeatStats{}},
		{"repeat shed or failed", []gensim.ReadQuery{fresh, repeatOf(0)}, []served{hit(1, "a", 1), {}}, repeatStats{}},
		{"repeat never issued", []gensim.ReadQuery{fresh, repeatOf(0)}, []served{hit(1, "a", 1)}, repeatStats{}},
	}
	for _, tc := range tests {
		got := compareRepeats(tc.trace, tc.out)
		if got != tc.want {
			t.Errorf("%s: stats = %+v, want %+v", tc.name, got, tc.want)
		}
		var r obs.SoakReport
		got.report(&r)
		if wantFailed := tc.want.mismatches > 0; (r.Failed() == 1) != wantFailed || !hasCheck(r, "repeat-identical") {
			t.Errorf("%s: report = %+v, want repeat-identical failing=%v", tc.name, r.Checks, wantFailed)
		}
	}
}
