package core

import "testing"

// TestFig3Smoke runs the graph-building experiment end to end at small scale
// and checks that both pipelines report real stage times.
func TestFig3Smoke(t *testing.T) {
	tbl := getTable(t, "fig3")
	if tbl.ID != "fig3" {
		t.Fatalf("table id = %q", tbl.ID)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("fig3 has %d rows, want 2 (PGGB, Minigraph-Cactus)", len(tbl.Rows))
	}
	wantPipelines := []string{"PGGB", "Minigraph-Cactus"}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tbl.Header))
		}
		if row[0].Text != wantPipelines[i] {
			t.Errorf("row %d pipeline = %q, want %q", i, row[0].Text, wantPipelines[i])
		}
		// Alignment and Induction (columns 1 and 2) must be measurable.
		for _, col := range []int{1, 2} {
			if num(t, row[col]) <= 0 {
				t.Errorf("row %d (%s) reports zero %s", i, row[0].Text, tbl.Header[col])
			}
		}
	}
}
