// Command benchmark is the repo's one performance benchmark: six workloads
// over the serving, mapping, construction and restart paths, driven
// in-process through the system's public functions, each reporting the same
// end-to-end metrics (untraced) and, with -trace 1, the per-layer metrics
// behind them. BENCHMARK.json declares the metrics, bounds and workloads;
// README.md in this directory explains what each one is for.
//
// Usage (from the repository root):
//
//	benchmark -workload W [-seed N] [-seconds S] [-trace 0|1]   one run, JSON result on the last line
//	benchmark -all [-runs N] [-seed N] [-o report.json]          every workload, untraced and traced, in fresh processes
//	benchmark -check A.json B.json                               compare two reports under BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/serve"
)

// workloads is the workload table. Sizes, client counts and tail
// percentiles are pinned: BENCHMARK.json's "why" lines say what each
// workload isolates, and README.md gives the measured layer shares.
var workloads = []workload{
	{name: "serve_short", clients: 2, tail: 0.99, setup: setupServeMap(mapserve.ToolGiraffe, servedGraph{20_000, 5, true}, 150, 4096)},
	{name: "serve_long", clients: 2, tail: 0.95, setup: setupServeMap(mapserve.ToolGraphAligner, servedGraph{300_000, 8, false}, 4000, 256)},
	{name: "offline_map", clients: 1, tail: 0.90, setup: setupOfflineMap},
	{name: "build_pggb", clients: 1, tail: 0.80, setup: setupBuild(serve.ToolPGGB, 8_000)},
	{name: "build_mc", clients: 1, tail: 0.80, setup: setupBuild(serve.ToolMC, 3_000)},
	{name: "restart", clients: 1, tail: 0.95, setup: setupRestart},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run once (see BENCHMARK.json)")
	seed := fs.Int64("seed", 42, "input seed: the only thing that may vary between runs")
	seconds := fs.Float64("seconds", 0, "length of the timed phase (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = record benchmark spans and report the per-layer metrics instead")
	all := fs.Bool("all", false, "run every workload, untraced and traced, each in a fresh process, and write a report")
	runs := fs.Int("runs", 1, "with -all: untraced runs per workload, on seeds seed, seed+1, …")
	out := fs.String("o", "", "with -all: report path (default benchmark/out/report-<seed>.json)")
	check := fs.Bool("check", false, "compare two reports: -check A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *check:
		if fs.NArg() != 2 {
			return fmt.Errorf("-check needs two report files")
		}
		return checkReports(spec, fs.Arg(0), fs.Arg(1))
	case *all:
		return runAll(spec, *seed, *seconds, *runs, *out)
	case *name == "":
		fs.Usage()
		return fmt.Errorf("need -workload, -all or -check")
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := runWorkload(w, params{seed: *seed}, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if *trace == 1 {
		declared = spec.PerLayer
	}
	line, err := resultLine(res, declared)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed or returned a wrong result", w.name, res.failed, res.attempted)
	}
	return nil
}

// resultLine prints every declared metric by name with its unit and returns
// the one-line JSON result. A per-layer metric the workload's path does not
// touch reads 0; a metric the run produced but BENCHMARK.json does not
// declare, or a missing end-to-end metric, is a bug in the benchmark.
func resultLine(res *result, declared []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	known := map[string]bool{}
	metrics := map[string]value{}
	for _, m := range declared {
		known[m.Name] = true
		v, ok := res.metrics[m.Name]
		if !ok && m.Bound != nil {
			return "", fmt.Errorf("run produced no %s", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
		fmt.Printf("%-40s %14.4f %s\n", m.Name, v, m.Unit)
	}
	var stray []string
	for n := range res.metrics {
		if !known[n] {
			stray = append(stray, n)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return "", fmt.Errorf("metrics not declared in BENCHMARK.json: %v", stray)
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	return string(raw), err
}
