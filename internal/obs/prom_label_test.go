package obs

import (
	"math"
	"strings"
	"testing"
	"time"

	"pangenomicsbench/internal/perf"
)

func TestWithLabelEscaping(t *testing.T) {
	cases := []struct{ value, want string }{
		{"w1", `fleet.tasks{node="w1"}`},
		{`back\slash`, `fleet.tasks{node="back\\slash"}`},
		{`say "hi"`, `fleet.tasks{node="say \"hi\""}`},
		{"line\nbreak", `fleet.tasks{node="line\nbreak"}`},
		{`all\"three` + "\n", `fleet.tasks{node="all\\\"three\n"}`},
	}
	for _, c := range cases {
		if got := WithLabel("fleet.tasks", "node", c.value); got != c.want {
			t.Errorf("WithLabel(%q) = %s, want %s", c.value, got, c.want)
		}
	}
	// A second label appends into the existing block.
	k := WithLabel(WithLabel("fleet.errors", "code", "decode"), "node", "w1")
	if k != `fleet.errors{code="decode",node="w1"}` {
		t.Fatalf("chained WithLabel = %s", k)
	}
}

// TestPromTextLabeledFamilies checks that labeled and unlabeled series of one
// family render under a single HELP/TYPE header, consecutively, and that the
// escaped label values survive the round trip to the exposition text.
func TestPromTextLabeledFamilies(t *testing.T) {
	m := perf.NewMetrics()
	m.Add("fleet.tasks", 3)
	m.Add(WithLabel("fleet.tasks", "node", "w1"), 2)
	m.Add(WithLabel("fleet.tasks", "node", `we"ird`), 1)
	m.GaugeSet(WithLabel("fleet.shard_pairs", "node", "w1"), 22)
	m.GaugeSet(WithLabel("fleet.shard_pairs", "node", "w2"), 6)
	m.Observe(WithLabel("fleet.rpc", "node", "w1"), 5*time.Millisecond)

	text := PromText(m.Snapshot())
	series := parseProm(t, text) // also rejects duplicate series

	if got := series["fleet_tasks_total"]; got != 3 {
		t.Errorf("unlabeled fleet_tasks_total = %v, want 3", got)
	}
	if got := series[`fleet_tasks_total{node="w1"}`]; got != 2 {
		t.Errorf("labeled fleet_tasks_total = %v, want 2", got)
	}
	if got := series[`fleet_tasks_total{node="we\"ird"}`]; got != 1 {
		t.Errorf("escaped-label series = %v, want 1", got)
	}
	if series[`fleet_shard_pairs{node="w1"}`] != 22 || series[`fleet_shard_pairs{node="w2"}`] != 6 {
		t.Error("shard-pairs gauges did not render per node")
	}
	if got := series[`fleet_rpc_seconds_count{node="w1"}`]; got != 1 {
		t.Errorf("labeled latency count = %v, want 1", got)
	}

	// One TYPE line per family, and every series of a family consecutive
	// under it — the exposition format's grouping requirement.
	lines := strings.Split(text, "\n")
	seenFamily := map[string]bool{}
	current := ""
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			if seenFamily[fam] {
				t.Fatalf("family %s declared twice", fam)
			}
			seenFamily[fam] = true
			current = fam
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if !strings.HasPrefix(name, current) {
			t.Fatalf("series %s rendered under family %s", name, current)
		}
	}
}

func TestPromFloatEdges(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{0, "0"},
		{5, "5"},
		{0.01, "0.01"},
		{1e-9, "1e-09"},
		{1e21, "1e+21"},
		{-2.5, "-2.5"},
	}
	for _, c := range cases {
		if got := promFloat(c.in); got != c.want {
			t.Errorf("promFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
