package main

import (
	"flag"
	"fmt"
	"strings"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/obs"
)

// newFlagSet is the common flag-set constructor for pgbench subcommands.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// popFlags is the population flag block shared by the trace-replay commands
// (serve-sim, soak, fleet): all start from the same deterministic simulated
// assembly catalog, so the flags and the simulation step live in one place.
type popFlags struct {
	refLen *int
	haps   *int
	seed   *int64
}

// addPopFlags registers the shared population/trace flags on fs with
// command-specific catalog defaults.
func addPopFlags(fs *flag.FlagSet, defRef, defHaps int) *popFlags {
	return &popFlags{
		refLen: fs.Int("ref", defRef, "simulated reference length (bp)"),
		haps:   fs.Int("haps", defHaps, "assemblies in the catalog"),
		seed:   fs.Int64("seed", 42, "trace seed"),
	}
}

// simulate builds the deterministic population behind the trace.
func (p *popFlags) simulate() (*gensim.Population, error) {
	return p.simulateWith(gensim.Scenario{})
}

// simulateWith builds the population with a scenario's reshaper applied on
// top of the flag-selected geometry (the zero Scenario changes nothing).
func (p *popFlags) simulateWith(sc gensim.Scenario) (*gensim.Population, error) {
	cfg := gensim.DefaultConfig()
	cfg.RefLen = *p.refLen
	cfg.Haplotypes = *p.haps
	return gensim.Simulate(sc.PopConfig(cfg))
}

// addScenarioFlag registers -scenario on fs with the catalog names inlined
// in the help text; resolve the value with gensim.LookupScenario.
func addScenarioFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("scenario", def,
		"workload scenario: "+strings.Join(gensim.ScenarioNames(), ", "))
}

// obsFlags is the admin-endpoint flag block shared by the serve commands.
type obsFlags struct {
	addr  *string
	pprof *bool
}

// addObsFlag registers -obs and -pprof on fs.
func addObsFlag(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		addr:  fs.String("obs", "", "admin/metrics listen address, e.g. :8080 (empty = no endpoint)"),
		pprof: fs.Bool("pprof", false, "mount continuous-profiling endpoints under /debug/pprof/ on the -obs server"),
	}
}

// start launches the obs admin server when -obs was given and returns its
// closer (a no-op closer otherwise).
func (o *obsFlags) start(cfg obs.ServerConfig) (func(), error) {
	if *o.addr == "" {
		return func() {}, nil
	}
	cfg.EnableProfiling = cfg.EnableProfiling || *o.pprof
	srv := obs.NewServer(cfg)
	bound, err := srv.Start(*o.addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("admin endpoint: http://%s/ (/metrics /traces /snapshots /healthz)\n", bound)
	if cfg.EnableProfiling {
		fmt.Printf("profiling endpoints: http://%s/debug/pprof/\n", bound)
	}
	return func() { _ = srv.Close() }, nil
}

// printSlowest renders the top-n slowest retained trace trees — the
// replay-end flight-recorder report.
func printSlowest(tr *obs.Tracer, n int) {
	slow := tr.Recorder().Slowest(n)
	if len(slow) == 0 {
		return
	}
	fmt.Printf("\nslowest %d traces:\n", len(slow))
	for _, d := range slow {
		fmt.Println(d.Tree())
	}
}
