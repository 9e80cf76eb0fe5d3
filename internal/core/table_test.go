package core

import (
	"testing"
	"time"
)

// TestCellString pins each format to the text the tables have always
// printed for it.
func TestCellString(t *testing.T) {
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{label("GSSW"), "GSSW"},
		{model(3.0249, Fixed2), "3.02"},
		{model(0.4736, Percent), "47.4%"},
		{model(1, Percent), "100.0%"},
		{model(1083, Count), "1083"},
		{model(68012345, Count), "68012345"},
		{wall((1234567 * time.Microsecond).Seconds(), Millis), "1.235s"},
		{wall((86651234 * time.Nanosecond).Seconds(), Micros), "86.651ms"},
		{wall(0, Micros), "0s"},
		{Cell{Kind: Wall, Text: "GWFA=1ms", Format: Plain}, "GWFA=1ms"},
	} {
		if got := tc.cell.String(); got != tc.want {
			t.Errorf("%+v prints %q, want %q", tc.cell, got, tc.want)
		}
	}
	// Durations survive the trip through seconds to the nanosecond.
	for _, d := range []time.Duration{1, 999_999, 86_651_234, 3_600_000_000_123} {
		if got := seconds(d.Seconds()); got != d {
			t.Errorf("seconds(%v.Seconds()) = %v", d, got)
		}
	}
}

// TestModelCellsDeterministic: every experiment run on a fresh small suite
// has the same rows as on the shared one, and the same cells in every place
// except the wall cells. Model cells come from the probe, the cache model
// and the SIMT simulator, so nothing about the run may move them.
func TestModelCellsDeterministic(t *testing.T) {
	fresh, err := NewSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]int{}
	for _, id := range Experiments() {
		a := getTable(t, id)
		b, err := fresh.Run(id)
		if err != nil {
			t.Fatalf("%s on a fresh suite: %v", id, err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Errorf("%s: %d rows, %d on a fresh suite", id, len(a.Rows), len(b.Rows))
			continue
		}
		for r, row := range a.Rows {
			if len(row) != len(a.Header) || len(b.Rows[r]) != len(a.Header) {
				t.Errorf("%s row %d: %d and %d cells for %d columns", id, r, len(row), len(b.Rows[r]), len(a.Header))
				continue
			}
			for c, want := range row {
				got := b.Rows[r][c]
				if want.Kind == Wall && got.Kind == Wall {
					continue
				}
				if got != want {
					t.Errorf("%s row %d %q: %#v, %#v on a fresh suite", id, r, a.Header[c], want, got)
				}
				if want.Kind == Model {
					models[id]++
				}
			}
		}
	}
	for _, id := range []string{"fig6+table6", "fig7", "fig8", "fig9", "table7", "fig10", "fig11"} {
		if models[id] == 0 {
			t.Errorf("%s has no model cells", id)
		}
	}
}
