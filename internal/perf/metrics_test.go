package perf

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	m.Add("x", 1)
	m.GaugeSet("g", 7)
	m.GaugeAdd("g", 1)
	m.Observe("y", time.Second)
	if got := m.Counter("x"); got != 0 {
		t.Fatalf("nil metrics counter = %d", got)
	}
	if v, w := m.Gauge("g"); v != 0 || w != 0 {
		t.Fatalf("nil metrics gauge = %d/%d", v, w)
	}
	snap := m.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Latencies) != 0 {
		t.Fatalf("nil metrics snapshot not empty: %+v", snap)
	}
}

func TestGaugeWatermark(t *testing.T) {
	m := NewMetrics()
	m.GaugeAdd("inflight", 1)
	m.GaugeAdd("inflight", 1)
	m.GaugeAdd("inflight", 1)
	m.GaugeAdd("inflight", -2)
	if v, w := m.Gauge("inflight"); v != 1 || w != 3 {
		t.Fatalf("inflight = %d/%d, want 1/3", v, w)
	}
	m.GaugeSet("depth", 9)
	m.GaugeSet("depth", 4)
	if v, w := m.Gauge("depth"); v != 4 || w != 9 {
		t.Fatalf("depth = %d/%d, want 4/9", v, w)
	}
	snap := m.Snapshot()
	g := snap.Gauges["inflight"]
	if g.Value != 1 || g.Watermark != 3 {
		t.Fatalf("snapshot gauge = %+v", g)
	}
	if out := snap.Render(); !strings.Contains(out, "inflight") || !strings.Contains(out, "high watermark 3") {
		t.Fatalf("render missing gauge watermark:\n%s", out)
	}
}

func TestMetricsCountersAndLatencies(t *testing.T) {
	m := NewMetrics()
	m.Add("requests", 2)
	m.Add("requests", 1)
	m.Add("inflight", 1)
	m.Add("inflight", -1)
	m.Observe("stage", 10*time.Millisecond)
	m.Observe("stage", 30*time.Millisecond)
	if got := m.Counter("requests"); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	if got := m.Counter("inflight"); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
	snap := m.Snapshot()
	l := snap.Latencies["stage"]
	if l.Count != 2 || l.Total != 40*time.Millisecond || l.Max != 30*time.Millisecond {
		t.Fatalf("latency summary = %+v", l)
	}
	if l.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", l.Mean())
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add("n", 1)
				m.Observe("lat", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("n"); got != 8000 {
		t.Fatalf("n = %d, want 8000", got)
	}
	if got := m.Snapshot().Latencies["lat"].Count; got != 8000 {
		t.Fatalf("lat count = %d, want 8000", got)
	}
}

func TestMetricsRenderStable(t *testing.T) {
	m := NewMetrics()
	m.Add("b", 2)
	m.Add("a", 1)
	m.Observe("z", time.Millisecond)
	out := m.Snapshot().Render()
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") || !strings.Contains(out, "z") {
		t.Fatalf("render missing keys:\n%s", out)
	}
	if strings.Index(out, "a") > strings.Index(out, "b") {
		t.Fatalf("render not sorted:\n%s", out)
	}
	if out != m.Snapshot().Render() {
		t.Fatal("render not stable across snapshots")
	}
}
