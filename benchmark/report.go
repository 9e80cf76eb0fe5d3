package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is the report header: enough to tell whether two reports came
// from comparable hosts and the same code and inputs.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg    string  `json:"load_avg_at_start"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	RunSeconds float64 `json:"run_seconds"`
}

// runRecord is one child run as the driver would see it.
type runRecord struct {
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// workloadReport holds a workload's untraced runs and its traced run. Ops
// are not a pinned count — a run measures for run_seconds — so every run
// records how many it attempted; TailSamples is the fewest samples any run
// left beyond the tail percentile.
type workloadReport struct {
	Tail        string      `json:"tail_percentile"`
	TailSamples int         `json:"tail_samples_beyond"`
	Runs        []runRecord `json:"runs"`
	Traced      *runRecord  `json:"traced,omitempty"`
}

type report struct {
	Host      hostInfo                   `json:"host"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func readHost(seed int64, runs int, seconds float64) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoMaxProcs: 2, GoVersion: runtime.Version(),
		CPUModel: "unknown", LoadAvg: "unknown", Commit: "unknown", Seed: seed, Runs: runs, RunSeconds: seconds}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.Join(strings.Fields(string(raw))[:3], " ")
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// childRun runs one workload once in a fresh process — so live_heap_mb and
// cpu_ms_per_op carry nothing over from the previous workload — and parses
// the JSON result on its last output line.
func childRun(name string, seed int64, seconds float64, trace int) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last output line is not a result: %w", name, err)
	}
	rec := &runRecord{Seed: seed, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		rec.Metrics[k] = v.Value
	}
	return rec, nil
}

// runAll is the one command that prints every metric of every workload:
// runs untraced runs per workload on consecutive seeds, then one traced
// run, each in its own process, and writes the JSON report.
func runAll(spec *benchSpec, seed int64, seconds float64, runs int, path string) error {
	rep := report{Host: readHost(seed, runs, seconds), Workloads: map[string]*workloadReport{}}
	fmt.Printf("# host: %+v\n", rep.Host)
	for _, w := range workloads {
		wr := &workloadReport{Tail: fmt.Sprintf("p%g", w.tail*100), TailSamples: -1}
		rep.Workloads[w.name] = wr
		for r := 0; r < runs; r++ {
			rec, err := childRun(w.name, seed+int64(r), seconds, 0)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, *rec)
			if beyond := samplesBeyond(rec.Attempted, w.tail); wr.TailSamples < 0 || beyond < wr.TailSamples {
				wr.TailSamples = beyond
			}
		}
		var err error
		if wr.Traced, err = childRun(w.name, seed, seconds, 1); err != nil {
			return err
		}
	}
	if path == "" {
		path = filepath.Join(mkOutDir(), fmt.Sprintf("report-%d.json", seed))
	}
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	printSummary(spec, &rep)
	return nil
}

// printSummary prints, per workload and end-to-end metric, the median over
// the runs, the quartile spread as a share of it, and the sample count.
func printSummary(spec *benchSpec, rep *report) {
	fmt.Printf("%-12s %-14s %14s %-6s %8s %5s\n", "workload", "metric", "median", "unit", "spread", "runs")
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		for _, m := range spec.EndToEnd {
			vs := wr.values(m.Name)
			name := m.Name
			if name == "op_tail_ms" {
				name += fmt.Sprintf(" (%s, ≥%d beyond)", wr.Tail, wr.TailSamples)
			}
			fmt.Printf("%-12s %-14s %14.4f %-6s %7.1f%% %5d\n", w.name, name, median(vs), m.Unit, 100*quartileSpread(vs), len(vs))
		}
	}
}

func (wr *workloadReport) values(metric string) []float64 {
	var vs []float64
	for _, r := range wr.Runs {
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func (wr *workloadReport) failed() int {
	n := 0
	for _, r := range wr.Runs {
		n += r.Failed
	}
	return n
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict compares a metric's runs in report B against report A under the
// metric's bound. "worse": B's median is worse by more than the bound and
// the runs resolve it. "unresolved": the run-to-run spread is wider than
// the bound, so the medians prove nothing — unless the two sets do not
// overlap at all, which settles it either way. "same" otherwise.
func verdict(m metricSpec, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	sign := 1.0 // worsening = increase
	if m.Better == "higher" {
		sign = -1
	}
	medA := median(a)
	delta := sign * (median(b) - medA) / medA
	spread := quartileSpread(a)
	if s := quartileSpread(b); s > spread {
		spread = s
	}
	// everyWorse: every run of y reads worse than every run of x.
	everyWorse := func(x, y []float64) bool {
		if m.Better == "higher" {
			return y[len(y)-1] < x[0]
		}
		return y[0] > x[len(x)-1]
	}
	sa, sb := sorted(a), sorted(b)
	allWorse, allBetter := everyWorse(sa, sb), everyWorse(sb, sa)
	bound := 0.0
	if m.Bound != nil {
		bound = *m.Bound
	}
	switch {
	case delta > bound && (spread <= bound || allWorse):
		return "worse"
	case delta > bound:
		return "unresolved"
	case spread > bound && !allBetter:
		return "unresolved"
	}
	return "same"
}

// checkReports prints one verdict row per workload × end-to-end metric and
// fails on any "worse" row, including a rise in failed ops.
func checkReports(spec *benchSpec, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-12s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			fmt.Printf("%-12s missing from a report\n", w.name)
			worse++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.values(m.Name), wb.values(m.Name)
			v := verdict(m, va, vb)
			if v == "worse" {
				worse++
			}
			change := 0.0
			if len(va) > 0 && len(vb) > 0 {
				change = (median(vb) - median(va)) / median(va)
			}
			fmt.Printf("%-12s %-14s %12.4f %12.4f %+7.1f%% %6.0f%%  %s\n", w.name, m.Name, median(va), median(vb), 100*change, 100**m.Bound, v)
		}
		if fa, fb := wa.failed(), wb.failed(); fb > fa {
			fmt.Printf("%-12s %-14s %12d %12d %8s %7s  worse\n", w.name, "failed ops", fa, fb, "", "0")
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d row(s) worse than the bound", worse)
	}
	return nil
}
