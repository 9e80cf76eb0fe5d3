package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pangenomicsbench/internal/perf"
)

// parseProm is a minimal exposition-format checker: it validates every
// line is a comment or `name{labels} value` with a parseable float value,
// and returns the sample series.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no sample value in %q", ln+1, line)
		}
		name, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample %q: %v", ln+1, raw, err)
		}
		if _, dup := series[name]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, name)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, name)
			}
		}
		for _, r := range base {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == ':') {
				t.Fatalf("line %d: invalid metric name %q", ln+1, base)
			}
		}
		series[name] = v
	}
	return series
}

func TestPromTextFormat(t *testing.T) {
	m := perf.NewMetrics()
	m.Add("mapserve.queries", 7)
	m.Add("mapserve.shed_queue", 1)
	m.GaugeAdd("mapserve.queue_depth", 3)
	m.GaugeAdd("mapserve.queue_depth", -1)
	m.Observe("mapserve.map", 4*time.Millisecond)
	m.Observe("mapserve.map", 6*time.Millisecond)
	for _, v := range []float64{1, 2, 3, 5, 30} {
		m.ObserveValue("example.sizes", v)
	}

	text := PromText(m.Snapshot())
	series := parseProm(t, text)

	if got := series["mapserve_queries_total"]; got != 7 {
		t.Errorf("queries_total = %v, want 7", got)
	}
	if got := series["mapserve_queue_depth"]; got != 2 {
		t.Errorf("queue_depth = %v, want 2", got)
	}
	if got := series["mapserve_queue_depth_watermark"]; got != 3 {
		t.Errorf("queue_depth_watermark = %v, want 3", got)
	}
	if got := series["mapserve_map_seconds_count"]; got != 2 {
		t.Errorf("map_seconds_count = %v, want 2", got)
	}
	if got := series["mapserve_map_seconds_sum"]; got < 0.0099 || got > 0.0101 {
		t.Errorf("map_seconds_sum = %v, want ~0.01", got)
	}
	if got := series[`example_sizes_bucket{le="+Inf"}`]; got != 5 {
		t.Errorf("+Inf bucket = %v, want 5", got)
	}

	// Histogram buckets must be cumulative (monotonic in le order).
	var les []int
	for name := range series {
		if strings.HasPrefix(name, "example_sizes_bucket{le=\"") && !strings.Contains(name, "+Inf") {
			raw := strings.TrimSuffix(strings.TrimPrefix(name, "example_sizes_bucket{le=\""), "\"}")
			le, err := strconv.Atoi(raw)
			if err != nil {
				t.Fatalf("bucket le %q: %v", raw, err)
			}
			les = append(les, le)
		}
	}
	sort.Ints(les)
	prev := -1.0
	for _, le := range les {
		cur := series[fmt.Sprintf("example_sizes_bucket{le=%q}", strconv.Itoa(le))]
		if cur < prev {
			t.Fatalf("bucket le=%d count %v < previous %v (not cumulative)", le, cur, prev)
		}
		prev = cur
	}
	if prev > series[`example_sizes_bucket{le="+Inf"}`] {
		t.Fatal("finite buckets exceed +Inf bucket")
	}

	// TYPE comments: exactly one per family.
	typed := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			typed[fam]++
		}
	}
	for fam, n := range typed {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, n)
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"mapserve.stage.seed": "mapserve_stage_seed",
		"span.serve.build":    "span_serve_build",
		"a-b c":               "a_b_c",
		"9lives":              "_9lives",
		"ok_name:x":           "ok_name:x",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromEmptySnapshot(t *testing.T) {
	if out := PromText(perf.MetricsSnapshot{}); out != "" {
		t.Fatalf("empty snapshot rendered %q", out)
	}
}
