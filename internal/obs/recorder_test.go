package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// mkTrace hand-builds one completed root SpanData, bypassing the wall clock.
func mkTrace(name string, dur time.Duration, shed bool) SpanData {
	return SpanData{Name: name, Start: time.Unix(0, 0), Duration: dur, Shed: shed}
}

// TestRecorderSampling pins the 1-in-N contract: the ring keeps every Nth
// successful trace plus every failed one, Total counts everything, and the
// exemplar set still sees the traces the sampler dropped.
func TestRecorderSampling(t *testing.T) {
	rec := newRecorder(TracerConfig{Capacity: 64, SampleEvery: 4})
	for i := 0; i < 16; i++ {
		d := time.Duration(i+1) * time.Millisecond
		rec.add(mkTrace("query", d, false))
	}
	if got := rec.Total(); got != 16 {
		t.Fatalf("total = %d, want 16 (sampling must not hide volume)", got)
	}
	if got := len(rec.Last(100)); got != 4 {
		t.Fatalf("ring retained %d traces, want 4 (1-in-4 of 16)", got)
	}
	// The slowest trace (16ms) was sampled out of the ring, but the exemplar
	// set must still have it.
	ex := rec.Exemplars()
	if len(ex) != 1 || ex[0].Duration != 16*time.Millisecond {
		t.Fatalf("exemplars = %+v, want the sampled-out 16ms trace", ex)
	}

	// Shed/error traces bypass sampling entirely.
	for i := 0; i < 3; i++ {
		rec.add(mkTrace("query", time.Millisecond, true))
	}
	shed := 0
	for _, d := range rec.Last(100) {
		if d.Shed {
			shed++
		}
	}
	if shed != 3 {
		t.Fatalf("ring has %d shed traces, want all 3 despite SampleEvery=4", shed)
	}
}

// TestRecorderSamplingDisabled pins that SampleEvery ≤ 1 keeps every trace —
// the legacy behaviour interactive runs rely on.
func TestRecorderSamplingDisabled(t *testing.T) {
	for _, every := range []int{0, 1} {
		rec := newRecorder(TracerConfig{Capacity: 64, SampleEvery: every})
		for i := 0; i < 10; i++ {
			rec.add(mkTrace("query", time.Millisecond, false))
		}
		if got := len(rec.Last(100)); got != 10 {
			t.Fatalf("SampleEvery=%d retained %d, want all 10", every, got)
		}
	}
}

// TestExemplarAging pins the aging contract: a slowest exemplar that sat
// unchallenged past ExemplarMaxAge is replaced by the next trace of that
// name even if faster; within the horizon only slower traces replace it.
func TestExemplarAging(t *testing.T) {
	rec := newRecorder(TracerConfig{Capacity: 8, ExemplarMaxAge: time.Minute})
	clock := time.Unix(1000, 0)
	rec.now = func() time.Time { return clock }

	rec.add(mkTrace("query", 50*time.Millisecond, false))
	clock = clock.Add(10 * time.Second)
	rec.add(mkTrace("query", 5*time.Millisecond, false))
	ex := rec.Exemplars()
	if len(ex) != 1 || ex[0].Duration != 50*time.Millisecond {
		t.Fatalf("fresh exemplar displaced by a faster trace: %+v", ex)
	}

	// Past the horizon the stale 50ms outlier must yield to current traffic.
	clock = clock.Add(2 * time.Minute)
	rec.add(mkTrace("query", 5*time.Millisecond, false))
	ex = rec.Exemplars()
	if len(ex) != 1 || ex[0].Duration != 5*time.Millisecond {
		t.Fatalf("stale exemplar not aged out: %+v", ex)
	}

	// The replacement is freshly stamped: it defends its slot again.
	clock = clock.Add(10 * time.Second)
	rec.add(mkTrace("query", 2*time.Millisecond, false))
	ex = rec.Exemplars()
	if len(ex) != 1 || ex[0].Duration != 5*time.Millisecond {
		t.Fatalf("refreshed exemplar displaced within horizon: %+v", ex)
	}
}

// TestExemplarAgingDisabled pins that ExemplarMaxAge = 0 retains the slowest
// exemplar forever (the legacy behaviour).
func TestExemplarAgingDisabled(t *testing.T) {
	rec := newRecorder(TracerConfig{Capacity: 8})
	clock := time.Unix(1000, 0)
	rec.now = func() time.Time { return clock }
	rec.add(mkTrace("query", 50*time.Millisecond, false))
	clock = clock.Add(24 * time.Hour)
	rec.add(mkTrace("query", time.Millisecond, false))
	ex := rec.Exemplars()
	if len(ex) != 1 || ex[0].Duration != 50*time.Millisecond {
		t.Fatalf("exemplar aged out with aging disabled: %+v", ex)
	}
}

// TestTracesHandlerSamplingAndAging drives the sampling + aging recorder
// through the admin endpoint: /traces?which=exemplars serves the aged
// exemplar set, and which=recent serves only the sampled ring.
func TestTracesHandlerSamplingAndAging(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 64, SampleEvery: 4, ExemplarMaxAge: time.Minute})
	rec := tr.Recorder()
	clock := time.Unix(1000, 0)
	rec.now = func() time.Time { return clock }

	rec.add(mkTrace("stale.query", 80*time.Millisecond, false))
	clock = clock.Add(5 * time.Minute)
	for i := 0; i < 8; i++ {
		rec.add(mkTrace("stale.query", time.Duration(i+1)*time.Millisecond, false))
	}

	srv := NewServer(ServerConfig{Recorder: rec})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+addr+"/traces?which=recent&format=jsonl&n=100")
	if code != 200 {
		t.Fatalf("/traces recent: status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 { // traces 1, 5, 9 of the 9 added (1-in-4)
		t.Fatalf("recent served %d traces, want 3 sampled of 9: %q", len(lines), body)
	}

	code, body = get(t, "http://"+addr+"/traces?which=exemplars&format=jsonl")
	if code != 200 {
		t.Fatalf("/traces exemplars: status %d", code)
	}
	var ex SpanData
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(body), "\n")[0]), &ex); err != nil {
		t.Fatalf("exemplar JSONL does not parse: %v\n%s", err, body)
	}
	// The 80ms trace aged out: the exemplar is the slowest *post-aging*
	// trace (the first add after the horizon, 1ms, then challenged up to 8ms).
	if ex.Name != "stale.query" || ex.Duration != 8*time.Millisecond {
		t.Fatalf("exemplar = %s/%v, want stale.query/8ms after aging", ex.Name, ex.Duration)
	}
}
