package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one benchmark-owned interval around a call into a layer, or a
// child synthesised from a duration that call returned. Times are
// nanoseconds since the run's epoch. Spans of one op share Op; Parent is 0
// for the op's root span.
type span struct {
	Op     uint64           `json:"op"`
	ID     uint32           `json:"id"`
	Parent uint32           `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start"`
	End    int64            `json:"end"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// opTrace collects the spans of one op. A nil *opTrace records nothing, so
// workloads call it unconditionally and the untraced run pays one nil check.
type opTrace struct {
	epoch time.Time
	op    uint64
	spans []span
}

// add records [start, start+d) under parent and returns the new span's id.
// A child is clipped to its parent's interval: synthesised children come
// from durations the system reports, which may overshoot the caller's clock
// by scheduling noise, and self time must never go negative.
func (t *opTrace) add(parent uint32, name string, start time.Time, d time.Duration) uint32 {
	if t == nil {
		return 0
	}
	s := span{Op: t.op, ID: uint32(len(t.spans) + 1), Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds()}
	s.End = s.Start + d.Nanoseconds()
	if parent != 0 {
		p := t.spans[parent-1]
		if s.Start < p.Start {
			s.Start = p.Start
		}
		if s.End > p.End {
			s.End = p.End
		}
		if s.End < s.Start {
			s.End = s.Start
		}
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// count attaches a counter to span id.
func (t *opTrace) count(id uint32, key string, v int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] = v
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// merged first, so shared time is subtracted once). Spans must all belong
// to one op.
func selfTimes(spans []span) map[uint32]time.Duration {
	kids := map[uint32][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[uint32]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// traceSet is every op trace of one traced phase.
type traceSet struct {
	ops [][]span
}

// durationsMs returns the duration in ms of every span called name.
func (ts *traceSet) durationsMs(name string) []float64 {
	var out []float64
	for _, op := range ts.ops {
		for _, s := range op {
			if s.Name == name {
				out = append(out, float64(s.dur())/1e6)
			}
		}
	}
	return out
}

// selfMs returns the self time in ms of every span called name.
func (ts *traceSet) selfMs(name string) []float64 {
	var out []float64
	for _, op := range ts.ops {
		self := selfTimes(op)
		for _, s := range op {
			if s.Name == name {
				out = append(out, float64(self[s.ID])/1e6)
			}
		}
	}
	return out
}

// totalMs sums the durations of every span called name.
func (ts *traceSet) totalMs(name string) float64 {
	t := 0.0
	for _, d := range ts.durationsMs(name) {
		t += d
	}
	return t
}

// counts returns counter key of every span called name that carries it.
func (ts *traceSet) counts(name, key string) []float64 {
	var out []float64
	for _, op := range ts.ops {
		for _, s := range op {
			if v, ok := s.Counts[key]; ok && s.Name == name {
				out = append(out, float64(v))
			}
		}
	}
	return out
}

// coverage is the reconciliation check: the share of op latency (root span
// time) that the non-root spans' self times account for. 1 means the
// durations the layers report sum to what the caller saw.
func (ts *traceSet) coverage() float64 {
	var root, child time.Duration
	for _, op := range ts.ops {
		self := selfTimes(op)
		for _, s := range op {
			if s.Parent == 0 {
				root += s.dur()
			} else {
				child += self[s.ID]
			}
		}
	}
	if root == 0 {
		return 0
	}
	return float64(child) / float64(root)
}

// write stores the spans as JSON lines at path.
func (ts *traceSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, op := range ts.ops {
		for _, s := range op {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
