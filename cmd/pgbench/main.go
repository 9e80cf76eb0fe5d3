// Command pgbench runs the PangenomicsBench-Go experiment harness: every
// table and figure of the paper has a driver that regenerates it on the
// synthetic datasets (see DESIGN.md for the experiment index).
//
// Usage:
//
//	pgbench list
//	pgbench run [-scale small|bench|large] [-threads N] [-scenario S] <experiment>...
//	pgbench all [-scale small|bench|large] [-threads N] [-scenario S]
//	pgbench soak [-scenario S] [-dur D] [-chaos LIST] [flags]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pangenomicsbench/internal/core"
	"pangenomicsbench/internal/gensim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pgbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		fmt.Println("experiments:")
		for _, id := range core.Experiments() {
			fmt.Println("  " + id)
		}
		fmt.Println("\nscenarios (run/all/soak -scenario):")
		for _, sc := range gensim.Scenarios() {
			fmt.Println("  " + sc.Describe())
		}
		return nil
	case "run", "all":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		scaleName := fs.String("scale", "bench", "dataset scale: small, bench, or large")
		threads := fs.Int("threads", 0, "worker threads for parallel stages (0 = all cores); results are identical for any value")
		scenarioName := addScenarioFlag(fs, "baseline")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *threads > 0 {
			// The parallel stages (all-vs-all matching, MC chunk mapping)
			// size their pools from GOMAXPROCS, so this bounds all of them.
			runtime.GOMAXPROCS(*threads)
		}
		scale, err := parseScale(*scaleName)
		if err != nil {
			return err
		}
		ids := fs.Args()
		if cmd == "all" {
			ids = core.Experiments()
		}
		if len(ids) == 0 {
			return fmt.Errorf("no experiments named (try: pgbench list)")
		}
		sc, err := gensim.LookupScenario(*scenarioName)
		if err != nil {
			return err
		}
		fmt.Printf("building %s-scale suite (scenario %s)...\n", *scaleName, sc.Name)
		t0 := time.Now()
		suite, err := core.NewScenarioSuite(scale, sc)
		if err != nil {
			return err
		}
		fmt.Printf("suite ready in %v (%d graph nodes, %d short reads, %d long reads)\n\n",
			time.Since(t0).Round(time.Millisecond),
			suite.Pop.Graph.NumNodes(), len(suite.ShortReads), len(suite.LongReads))
		for _, id := range ids {
			t0 := time.Now()
			tbl, err := suite.Run(id)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
			fmt.Print(tbl.Render())
			fmt.Printf("(%s in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
		}
		return nil
	case "gen":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		scaleName := fs.String("scale", "bench", "dataset scale: small, bench, or large")
		dir := fs.String("out", "datasets", "output directory")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		scale, err := parseScale(*scaleName)
		if err != nil {
			return err
		}
		suite, err := core.NewSuite(scale)
		if err != nil {
			return err
		}
		files, err := suite.ExportDatasets(*dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			fmt.Printf("wrote %s/%s\n", *dir, f)
		}
		return nil
	case "soak":
		return soakCmd(rest)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown command %q", cmd)
}

func parseScale(s string) (core.Scale, error) {
	switch s {
	case "small":
		return core.Small, nil
	case "bench":
		return core.Bench, nil
	case "large":
		return core.Large, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want small, bench, or large)", s)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pgbench list                                 list experiment IDs and scenarios
  pgbench run [-scale S] [-threads N] <experiment>...  run named experiments
  pgbench all [-scale S] [-threads N]          run every experiment
                                               (-threads bounds the parallel
                                               stages; output is identical
                                               for any value; -scenario reshapes
                                               the workload adversarially)
  pgbench gen [-scale S] [-out DIR]            export datasets (FASTA/FASTQ/GFA)
  pgbench soak [flags]                         replay a scenario against the full
                                               build-then-serve stack for -dur,
                                               injecting -chaos events (swap, shed,
                                               restart, build-reject); exits
                                               non-zero if any end-of-run
                                               assertion fails,
                                               including a repeated read that
                                               mapped differently
scales: small (quick check), bench (default), large`)
}
