package perf

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is a concurrency-safe set of named counters and latency
// accumulators — the service-level companion to the Probe's
// microarchitectural event stream. Long-running subsystems (the serve-mode
// build service, the simulated multi-tenant replay) record requests, cache
// hits, evictions and per-stage latencies here, and reports snapshot it.
//
// A nil *Metrics is valid everywhere and records nothing, matching the
// Probe's nil-safety rule, so instrumentation points pay only a nil check
// when metrics are disabled.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]*gaugeAcc
	lats     map[string]*latAcc
}

// gaugeAcc is a settable level with a high watermark — the right shape for
// in-flight counts and queue depths, where the peak matters as much as the
// instant value and the Add(+1)/Add(-1) counter pattern loses it.
type gaugeAcc struct {
	val int64
	max int64
}

type latAcc struct {
	count int64
	total time.Duration
	max   time.Duration
}

// NewMetrics returns an empty metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]int64{},
		gauges:   map[string]*gaugeAcc{},
		lats:     map[string]*latAcc{},
	}
}

// Add adds delta (which may be negative, for gauges like in-flight counts)
// to the named counter, creating it at zero on first use.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// GaugeSet sets the named gauge to v, tracking its high watermark.
func (m *Metrics) GaugeSet(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	g := m.gauges[name]
	if g == nil {
		g = &gaugeAcc{}
		m.gauges[name] = g
	}
	g.val = v
	if v > g.max {
		g.max = v
	}
	m.mu.Unlock()
}

// GaugeAdd adjusts the named gauge by delta (typically ±1 around an
// in-flight section), tracking its high watermark.
func (m *Metrics) GaugeAdd(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	g := m.gauges[name]
	if g == nil {
		g = &gaugeAcc{}
		m.gauges[name] = g
	}
	g.val += delta
	if g.val > g.max {
		g.max = g.val
	}
	m.mu.Unlock()
}

// Gauge returns the named gauge's current value and high watermark
// (0, 0 if never touched).
func (m *Metrics) Gauge(name string) (value, watermark int64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g := m.gauges[name]; g != nil {
		return g.val, g.max
	}
	return 0, 0
}

// Observe records one latency sample under name.
func (m *Metrics) Observe(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	acc := m.lats[name]
	if acc == nil {
		acc = &latAcc{}
		m.lats[name] = acc
	}
	acc.count++
	acc.total += d
	if d > acc.max {
		acc.max = d
	}
	m.mu.Unlock()
}

// Counter returns the named counter's current value (0 if never touched).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// LatencySummary is one latency accumulator's snapshot.
type LatencySummary struct {
	Count int64
	Total time.Duration
	Max   time.Duration
}

// Mean returns the average sample, or 0 with no samples.
func (l LatencySummary) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Count)
}

// GaugeSummary is one gauge's snapshot: its instant value and the high
// watermark it ever reached.
type GaugeSummary struct {
	Value     int64
	Watermark int64
}

// MetricsSnapshot is a consistent copy of a metric set.
type MetricsSnapshot struct {
	Counters  map[string]int64
	Gauges    map[string]GaugeSummary
	Latencies map[string]LatencySummary
}

// Snapshot copies the current state. A nil receiver snapshots empty maps.
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:  map[string]int64{},
		Gauges:    map[string]GaugeSummary{},
		Latencies: map[string]LatencySummary{},
	}
	if m == nil {
		return snap
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		snap.Counters[k] = v
	}
	for k, g := range m.gauges {
		snap.Gauges[k] = GaugeSummary{Value: g.val, Watermark: g.max}
	}
	for k, acc := range m.lats {
		snap.Latencies[k] = LatencySummary{Count: acc.count, Total: acc.total, Max: acc.max}
	}
	return snap
}

// Render formats the snapshot as a stable, sorted plain-text report.
func (s MetricsSnapshot) Render() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%-28s %12d\n", k, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g := s.Gauges[k]
		fmt.Fprintf(&b, "%-28s %12d  (high watermark %d)\n", k, g.Value, g.Watermark)
	}
	names = names[:0]
	for k := range s.Latencies {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		l := s.Latencies[k]
		fmt.Fprintf(&b, "%-28s n=%-8d mean=%-12v max=%v\n",
			k, l.Count, l.Mean().Round(time.Microsecond), l.Max.Round(time.Microsecond))
	}
	return b.String()
}
