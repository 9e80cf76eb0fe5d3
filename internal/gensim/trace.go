package gensim

import (
	"fmt"
	"math"
	"math/rand"
)

// TraceConfig controls the synthetic multi-tenant request trace that drives
// serve-mode benchmarking. Each tenant owns a contiguous "home" window of
// the population's assemblies and issues build requests whose cohorts are
// drawn from that window with occasional drift, so consecutive requests of
// one tenant — and requests of tenants with adjacent windows — overlap
// heavily. That overlap is exactly what the serve-mode pair cache exploits.
type TraceConfig struct {
	// Tenants is the number of simulated clients (≥1).
	Tenants int
	// Requests is the total number of requests in the trace.
	Requests int
	// CohortMin / CohortMax bound each request's cohort size (clamped to
	// [2, population size]).
	CohortMin, CohortMax int
	// Drift is the per-request probability that a tenant's home window
	// shifts by one assembly, aging old pairs out of the working set.
	Drift float64
	// Seed makes the trace deterministic.
	Seed int64
}

// DefaultTraceConfig is a laptop-scale multi-tenant workload.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Tenants:   4,
		Requests:  32,
		CohortMin: 3,
		CohortMax: 5,
		Drift:     0.25,
		Seed:      42,
	}
}

// TraceRequest is one serve-mode build request of the trace.
type TraceRequest struct {
	// Tenant identifies the issuing client (0-based).
	Tenant int
	// Cohort names the assemblies to build, in request order.
	Cohort []string
}

// Trace generates a deterministic multi-tenant request trace over the
// population's haplotypes. Requests are interleaved round-robin across
// tenants in issue order; cohorts of one tenant are sampled from its slowly
// drifting home window so the trace exhibits the overlapping-cohort reuse
// pattern serve-mode caching targets.
func (p *Population) Trace(cfg TraceConfig) ([]TraceRequest, error) {
	names, _ := p.AssemblyView()
	n := len(names)
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("gensim: trace needs ≥1 tenant (got %d)", cfg.Tenants)
	}
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("gensim: trace needs ≥1 request (got %d)", cfg.Requests)
	}
	if n < 2 {
		return nil, fmt.Errorf("gensim: population has %d assemblies, need ≥2", n)
	}
	lo, hi := cfg.CohortMin, cfg.CohortMax
	if lo < 2 {
		lo = 2
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		return nil, fmt.Errorf("gensim: cohort bounds [%d,%d] unsatisfiable for %d assemblies", cfg.CohortMin, cfg.CohortMax, n)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	home := make([]int, cfg.Tenants) // each tenant's window start
	for t := range home {
		home[t] = rng.Intn(n)
	}

	out := make([]TraceRequest, 0, cfg.Requests)
	for r := 0; r < cfg.Requests; r++ {
		t := r % cfg.Tenants
		if rng.Float64() < cfg.Drift {
			home[t] = (home[t] + 1) % n
		}
		size := lo + rng.Intn(hi-lo+1)
		cohort := make([]string, 0, size)
		for i := 0; i < size; i++ {
			cohort = append(cohort, names[(home[t]+i)%n])
		}
		// Occasionally shuffle so cohort ordering varies while the
		// underlying assembly set (and its cached pairs) repeats.
		if rng.Intn(4) == 0 {
			rng.Shuffle(len(cohort), func(i, j int) {
				cohort[i], cohort[j] = cohort[j], cohort[i]
			})
		}
		out = append(out, TraceRequest{Tenant: t, Cohort: cohort})
	}
	return out, nil
}

// skewedIndex draws an index in [0,n) from a truncated geometric
// distribution: index i carries weight skew^i, so index 0 dominates and the
// tail decays geometrically — the one-hot/long-tail shape of skewed
// multi-tenant traffic. Requires 0 < skew < 1.
func skewedIndex(rng *rand.Rand, n int, skew float64) int {
	if n <= 1 {
		return 0
	}
	u := rng.Float64()
	// Normalize the geometric weights over exactly n indices.
	total := 1 - math.Pow(skew, float64(n))
	acc, w := 0.0, (1-skew)/total
	for i := 0; i < n; i++ {
		acc += w
		if u < acc {
			return i
		}
		w *= skew
	}
	return n - 1
}
