package obs

import (
	"fmt"
	"sort"
	"strings"

	"pangenomicsbench/internal/perf"
)

// Labeled series: a perf metric key may carry a Prometheus-style label
// block suffix — `fleet.shard_pairs{node="w1"}` — built with WithLabel.
// perf.Metrics itself stays label-unaware (keys are opaque strings); the
// exposition layer here parses the suffix so all series of one family are
// grouped under a single HELP/TYPE header, as the text format requires.
// The fleet coordinator is the producer: its per-node dispatch counters and
// shard-balance gauges carry a `node` label.

// WithLabel returns the metric key for name with an added label. The value
// is escaped per the exposition format (backslash, quote, newline); calling
// it again appends into the existing label block, keeping one well-formed
// suffix. Label insertion order is preserved.
func WithLabel(name, label, value string) string {
	pair := label + `="` + escapeLabelValue(value) + `"`
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// splitLabels splits a metric key into its base name and label block
// ("" when unlabeled; otherwise the braces-inclusive suffix).
func splitLabels(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i:]
	}
	return key, ""
}

// seriesName renders one sample name: sanitized base + suffix + label block.
func seriesName(base, suffix, labels string) string {
	return promName(base) + suffix + labels
}

// family is one metric family: all raw keys sharing a base name.
type family struct {
	base string
	keys []string // full raw keys, sorted (unlabeled first)
}

// families groups a map's keys by base name, families sorted by base and
// keys sorted within each family — the exposition format requires every
// series of a family to be consecutive under one HELP/TYPE header.
func families[V any](m map[string]V) []family {
	byBase := map[string][]string{}
	for k := range m {
		base, _ := splitLabels(k)
		byBase[base] = append(byBase[base], k)
	}
	out := make([]family, 0, len(byBase))
	for base, keys := range byBase {
		sort.Strings(keys)
		out = append(out, family{base: base, keys: keys})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

// PromText renders a perf.MetricsSnapshot in the Prometheus text exposition
// format (version 0.0.4): counters as <name>_total, gauges as <name> plus a
// <name>_watermark gauge, latency accumulators as <name>_seconds summaries
// (count/sum plus a _max gauge). Metric names are sanitized (every character
// outside [a-zA-Z0-9_:] becomes '_'), keys may carry label blocks (see
// WithLabel), and families are emitted in sorted order so consecutive
// scrapes diff cleanly.
func PromText(s perf.MetricsSnapshot) string {
	var b strings.Builder

	for _, fam := range families(s.Counters) {
		name := promName(fam.base) + "_total"
		fmt.Fprintf(&b, "# HELP %s Counter %q.\n# TYPE %s counter\n", name, fam.base, name)
		for _, k := range fam.keys {
			_, labels := splitLabels(k)
			fmt.Fprintf(&b, "%s %d\n", seriesName(fam.base, "_total", labels), s.Counters[k])
		}
	}
	for _, fam := range families(s.Gauges) {
		name := promName(fam.base)
		fmt.Fprintf(&b, "# HELP %s Gauge %q.\n# TYPE %s gauge\n", name, fam.base, name)
		for _, k := range fam.keys {
			_, labels := splitLabels(k)
			fmt.Fprintf(&b, "%s %d\n", seriesName(fam.base, "", labels), s.Gauges[k].Value)
		}
		fmt.Fprintf(&b, "# HELP %s_watermark High watermark of gauge %q.\n# TYPE %s_watermark gauge\n",
			name, fam.base, name)
		for _, k := range fam.keys {
			_, labels := splitLabels(k)
			fmt.Fprintf(&b, "%s %d\n", seriesName(fam.base, "_watermark", labels), s.Gauges[k].Watermark)
		}
	}
	for _, fam := range families(s.Latencies) {
		name := promName(fam.base) + "_seconds"
		fmt.Fprintf(&b, "# HELP %s Latency summary %q.\n# TYPE %s summary\n", name, fam.base, name)
		for _, k := range fam.keys {
			l := s.Latencies[k]
			_, labels := splitLabels(k)
			fmt.Fprintf(&b, "%s %d\n%s %s\n",
				seriesName(fam.base, "_seconds_count", labels), l.Count,
				seriesName(fam.base, "_seconds_sum", labels), promFloat(l.Total.Seconds()))
		}
		fmt.Fprintf(&b, "# HELP %s_max Maximum latency sample %q.\n# TYPE %s_max gauge\n", name, fam.base, name)
		for _, k := range fam.keys {
			_, labels := splitLabels(k)
			fmt.Fprintf(&b, "%s %s\n",
				seriesName(fam.base, "_seconds_max", labels), promFloat(s.Latencies[k].Max.Seconds()))
		}
	}
	return b.String()
}

// promName sanitizes a dotted metric name into the Prometheus alphabet.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float sample value ('g' keeps integers short, never
// emits a locale-dependent form, and spells specials the way the exposition
// format does: NaN, +Inf, -Inf).
func promFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
