package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// params is what a workload's set-up receives: every generated input
// derives from seed and nothing else. smoke shrinks inputs for the test.
type params struct {
	seed  int64
	smoke bool
	// tmp is a scratch directory inside the checkout, removed after the run.
	tmp string
}

// instance is one set-up workload: the system under test, its generated
// inputs and the reference outputs its ops are checked against.
type instance interface {
	// op runs operation i of client c through the system's public API and
	// returns an error when it fails, is shed, or returns a wrong result.
	// t is nil in untraced phases.
	op(c, i int, t *opTrace) error
	// verify runs the output checks too slow to sit between ops, after the
	// timed phase and outside every metric; it returns the number of wrong
	// outputs found.
	verify() (int, error)
	// layers fills per-layer metrics from the traced phase's spans and from
	// direct calls into single layers, spending about budget on the latter.
	layers(ts *traceSet, budget time.Duration, out map[string]float64) error
	close()
}

// workload is one row of the workload table. Everything that shapes the
// measurement is pinned here; only the seed may vary between runs.
type workload struct {
	name string
	// clients is the number of closed-loop callers: each issues its next op
	// only after the previous one returned.
	clients int
	// tail is the workload's fixed tail percentile for op_tail_ms, chosen
	// so that a run of BENCHMARK.json's run_seconds leaves well over
	// minBeyond samples beyond it on a 2-core host.
	tail float64
	// setup generates inputs, constructs the system and warms it up.
	setup func(p params) (instance, error)
}

// setupRepeats is how often a run sets the workload up; setup_s is the
// median, so one slow set-up (a GC cycle, a cold page) does not move it.
const setupRepeats = 5

// phase is the outcome of one closed-loop measurement interval.
type phase struct {
	latMs  []float64 // caller-observed latency of every attempted op
	failed int
	wall   time.Duration
	cpu    time.Duration
	traces *traceSet
	err    error // first op failure, for the log
}

func (p *phase) opsPerS() float64 { return float64(len(p.latMs)-p.failed) / p.wall.Seconds() }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase drives inst with w.clients closed-loop clients for d. next holds
// each client's op counter and is advanced, so a later phase continues
// through the inputs instead of replaying their head.
func runPhase(w workload, inst instance, d time.Duration, traced bool, next []int) phase {
	type clientLog struct {
		lat    []float64
		failed int
		ops    [][]span
		err    error
	}
	logs := make([]clientLog, w.clients)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			for time.Now().Before(deadline) {
				var t *opTrace
				if traced {
					t = &opTrace{epoch: start, op: uint64(next[c]*w.clients + c)}
				}
				t0 := time.Now()
				err := inst.op(c, next[c], t)
				l.lat = append(l.lat, float64(time.Since(t0))/1e6)
				next[c]++
				if err != nil {
					l.failed++
					if l.err == nil {
						l.err = err
					}
				}
				if t != nil {
					l.ops = append(l.ops, t.spans)
				}
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	if traced {
		p.traces = &traceSet{}
	}
	for _, l := range logs {
		p.latMs = append(p.latMs, l.lat...)
		p.failed += l.failed
		if p.err == nil {
			p.err = l.err
		}
		if traced {
			p.traces.ops = append(p.traces.ops, l.ops...)
		}
	}
	return p
}

// liveHeapMB returns what is still reachable, in MB, with services and
// caches still open: it shows work a change moved into retained state. Two
// collections, because sync.Pool contents survive one (as the victim
// cache) and how much scratch the pools hold at that instant depends on
// when the last background GC ran, not on the code under test.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// result is one run's outcome in the shape the acceptance driver reads.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

// runWorkload is one run: setupRepeats set-ups (the last one is measured),
// then either the untraced timed phase yielding the end-to-end metrics, or
// the traced plan yielding the per-layer ones.
func runWorkload(w workload, p params, seconds float64, traced bool) (*result, error) {
	if runtime.NumCPU() < 2 {
		return nil, errors.New("the benchmark needs at least 2 cores: its 2 closed-loop clients and the system share one process")
	}
	runtime.GOMAXPROCS(2)
	tmp, err := os.MkdirTemp(mkOutDir(), "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	repeats := setupRepeats
	if p.smoke || traced {
		repeats = 1
	}
	var inst instance
	var setups []float64
	for r := 0; r < repeats; r++ {
		if inst != nil {
			inst.close()
		}
		p.tmp = filepath.Join(tmp, fmt.Sprint("setup", r))
		if err := os.MkdirAll(p.tmp, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if inst, err = w.setup(p); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	dur := time.Duration(seconds * float64(time.Second))
	next := make([]int, w.clients)
	res := &result{metrics: map[string]float64{}}
	var phases []phase
	if !traced {
		ph := runPhase(w, inst, dur, false, next)
		// The latency log is the benchmark's, not the system's: its size
		// follows the op count, so it is taken out of the live heap.
		heap := liveHeapMB() - float64(cap(ph.latMs)*8)/1e6
		phases = append(phases, ph)
		tail, err := tailPercentile(ph.latMs, w.tail)
		if err != nil {
			return nil, fmt.Errorf("%s: op_tail_ms: %w", w.name, err)
		}
		done := float64(len(ph.latMs) - ph.failed)
		res.metrics["setup_s"] = median(setups)
		res.metrics["ops_per_s"] = ph.opsPerS()
		res.metrics["op_p50_ms"] = median(ph.latMs)
		res.metrics["op_tail_ms"] = tail
		res.metrics["cpu_ms_per_op"] = float64(ph.cpu) / 1e6 / done
		res.metrics["live_heap_mb"] = heap
		fmt.Printf("# %s: %d ops in %.2fs by %d client(s); op_tail_ms is p%g with %d samples beyond it\n",
			w.name, len(ph.latMs), ph.wall.Seconds(), w.clients, w.tail*100, samplesBeyond(len(ph.latMs), w.tail))
	} else {
		// Traced plan: an untraced phase (the overhead baseline), a traced
		// phase of the same length that continues through the inputs (a
		// replay would find every cache warm), then direct layer probes.
		plain := runPhase(w, inst, dur*35/100, false, next)
		tr := runPhase(w, inst, dur*35/100, true, next)
		phases = append(phases, plain, tr)
		if err := tr.traces.write(filepath.Join(mkOutDir(), w.name+".trace.jsonl")); err != nil {
			return nil, err
		}
		if err := inst.layers(tr.traces, dur*3/10, res.metrics); err != nil {
			return nil, fmt.Errorf("%s layers: %w", w.name, err)
		}
		res.metrics["bench.trace_overhead_share"] = 1 - tr.opsPerS()/plain.opsPerS()
		res.metrics["bench.trace_coverage_share"] = tr.traces.coverage()
	}
	for _, ph := range phases {
		res.attempted += len(ph.latMs)
		res.failed += ph.failed
		if ph.err != nil {
			fmt.Fprintf(os.Stderr, "%s: first failed op: %v\n", w.name, ph.err)
		}
	}
	wrong, err := inst.verify()
	if err != nil {
		return nil, fmt.Errorf("%s verify: %w", w.name, err)
	}
	res.failed += wrong
	return res, nil
}

// mkOutDir returns the benchmark's output directory inside the checkout
// (gitignored), creating it on first use.
func mkOutDir() string {
	dir := filepath.Join("benchmark", "out")
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		dir = "out" // under `go test` the working directory is benchmark/
	}
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first write into it
	return dir
}
