package fleet

import (
	"context"
	"testing"

	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

func attrValue(d *obs.SpanData, key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestCoordinatorTraceTree runs a fleet build under a root span and
// checks the assembled tree: one fleet.dispatch child per pair, each nested
// directly under the root of its trace and running inside it.
func TestCoordinatorTraceTree(t *testing.T) {
	names, seqs := testCatalog(t, 5000, 4)
	c := localFleet(t, Config{Metrics: perf.NewMetrics()}, names, 2)

	ctr := obs.NewTracer(obs.TracerConfig{})
	root := ctr.StartRoot("fleet.build")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, _, _, err := cohortMatches(ctx, c, names, seqs); err != nil {
		t.Fatal(err)
	}
	root.End()

	d := root.Data()
	wantPairs := len(names) * (len(names) - 1) / 2
	if len(d.Children) != wantPairs {
		t.Fatalf("root has %d children, want %d dispatch spans", len(d.Children), wantPairs)
	}
	seen := map[string]bool{}
	for _, disp := range d.Children {
		if disp.Name != "fleet.dispatch" {
			t.Fatalf("unexpected child %q", disp.Name)
		}
		if disp.Start.Before(d.Start) || disp.Start.Add(disp.Duration).After(d.Start.Add(d.Duration)) {
			t.Fatalf("dispatch %s [%v +%v] outside its root [%v +%v]",
				attrValue(&disp, "pair"), disp.Start, disp.Duration, d.Start, d.Duration)
		}
		pair := attrValue(&disp, "pair")
		if seen[pair] {
			t.Fatalf("pair %s dispatched twice", pair)
		}
		seen[pair] = true
	}
}
