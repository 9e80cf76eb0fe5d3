package gensim

import (
	"reflect"
	"testing"
)

func tracePopulation(t *testing.T) *Population {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RefLen = 2000
	cfg.Haplotypes = 8
	pop, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// testTraceConfig is a laptop-scale multi-tenant workload.
var testTraceConfig = TraceConfig{Tenants: 4, Requests: 32, CohortMin: 3, CohortMax: 5, Drift: 0.25, Seed: 42}

func TestTraceDeterministicAndValid(t *testing.T) {
	pop := tracePopulation(t)
	cfg := testTraceConfig
	a, err := pop.Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pop.Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("trace not deterministic for a fixed seed")
	}
	if len(a) != cfg.Requests {
		t.Fatalf("trace has %d requests, want %d", len(a), cfg.Requests)
	}

	names, _ := pop.AssemblyView()
	known := map[string]bool{}
	for _, n := range names {
		known[n] = true
	}
	for i, req := range a {
		if len(req.Cohort) < 2 || len(req.Cohort) > cfg.CohortMax {
			t.Fatalf("request %d: cohort size %d outside [2,%d]", i, len(req.Cohort), cfg.CohortMax)
		}
		seen := map[string]bool{}
		for _, name := range req.Cohort {
			if !known[name] {
				t.Fatalf("request %d: unknown assembly %q", i, name)
			}
			if seen[name] {
				t.Fatalf("request %d: repeated assembly %q", i, name)
			}
			seen[name] = true
		}
	}
}

func TestTraceOverlap(t *testing.T) {
	pop := tracePopulation(t)
	trace, err := pop.Trace(testTraceConfig)
	if err != nil {
		t.Fatal(err)
	}
	// The workload must repeat assembly pairs: distinct pairs touched must
	// be well below total pair touches, else there is nothing to cache.
	pair := func(a, b string) [2]string {
		if a > b {
			a, b = b, a
		}
		return [2]string{a, b}
	}
	total, distinct := 0, map[[2]string]bool{}
	for _, req := range trace {
		for i := 0; i < len(req.Cohort); i++ {
			for j := i + 1; j < len(req.Cohort); j++ {
				total++
				distinct[pair(req.Cohort[i], req.Cohort[j])] = true
			}
		}
	}
	if len(distinct)*2 > total {
		t.Fatalf("trace has little overlap: %d distinct of %d pair touches", len(distinct), total)
	}
}

func TestTraceValidation(t *testing.T) {
	pop := tracePopulation(t)
	bad := []TraceConfig{
		{Tenants: 0, Requests: 1, CohortMin: 2, CohortMax: 3},
		{Tenants: 1, Requests: 0, CohortMin: 2, CohortMax: 3},
		{Tenants: 1, Requests: 1, CohortMin: 9, CohortMax: 100},
	}
	for i, cfg := range bad {
		if _, err := pop.Trace(cfg); err == nil {
			t.Errorf("case %d: invalid trace config accepted: %+v", i, cfg)
		}
	}
}
