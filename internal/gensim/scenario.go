package gensim

import (
	"fmt"
	"sort"
	"time"
)

// Scenario is one named adversarial workload family of the catalog. The
// paper's methodology is characterization — run the same kernels across
// workload shapes and find where behaviour breaks — and a Scenario is one
// such shape, self-describing (what it is, which failure mode it targets)
// and reproducible (every derived artifact is a pure function of the base
// config and its seed).
//
// A scenario reshapes the base configs of the existing generation pipeline
// rather than replacing it: Population feeds Simulate, Reads feeds
// SimulateReads, ReadTrace feeds Population.ReadQueryTrace, and Arrival
// feeds Arrivals. Any nil reshaper leaves its config untouched, so every
// scenario composes with any scale.
type Scenario struct {
	// Name is the catalog key (e.g. "sv-dense").
	Name string
	// Summary is one line of what the workload looks like.
	Summary string
	// FailureMode names the kernel/serving behaviour the scenario is built
	// to break — the characterization target.
	FailureMode string

	Population func(Config) Config
	Reads      func(ReadConfig) ReadConfig
	ReadTrace  func(ReadTraceConfig) ReadTraceConfig
	Arrival    func(ArrivalConfig) ArrivalConfig
}

// PopConfig applies the scenario's population reshaper (identity when nil).
func (s Scenario) PopConfig(base Config) Config {
	if s.Population == nil {
		return base
	}
	return s.Population(base)
}

// ReadsConfig applies the scenario's read reshaper (identity when nil).
func (s Scenario) ReadsConfig(base ReadConfig) ReadConfig {
	if s.Reads == nil {
		return base
	}
	return s.Reads(base)
}

// ReadTraceConfig applies the scenario's query-trace reshaper (identity when
// nil).
func (s Scenario) ReadTraceConfig(base ReadTraceConfig) ReadTraceConfig {
	if s.ReadTrace == nil {
		return base
	}
	return s.ReadTrace(base)
}

// ArrivalConfig applies the scenario's arrival-curve reshaper (identity when
// nil).
func (s Scenario) ArrivalConfig(base ArrivalConfig) ArrivalConfig {
	if s.Arrival == nil {
		return base
	}
	return s.Arrival(base)
}

// Describe renders the catalog entry as "name: summary (targets: ...)".
func (s Scenario) Describe() string {
	return fmt.Sprintf("%-15s %s (targets: %s)", s.Name, s.Summary, s.FailureMode)
}

// catalog is the fixed scenario set, keyed by name. Fixed and named is the
// point (the GAP suite's lesson): results quoted against "sv-dense" mean the
// same cohort shape in every paper, run, and regression bisect.
var catalog = map[string]Scenario{
	"baseline": {
		Name:        "baseline",
		Summary:     "the original single population shape, unmodified",
		FailureMode: "nothing — the control arm every other scenario is read against",
	},
	"sv-dense": {
		Name:    "sv-dense",
		Summary: "SV insertion sites at ~50x density, each a 3-allele group of near-identical alleles",
		FailureMode: "nested-bubble construction: transclosure growth, sibling-collapse " +
			"fixpoint, and bubble-dense chaining ambiguity",
		Population: func(c Config) Config {
			c.SVRate *= 50
			c.SVAlleles = 3
			c.IndelRate *= 2
			if c.MaxSV > 300 {
				c.MaxSV = 300 // many medium SVs beat few huge ones for bubble density
			}
			return c
		},
	},
	"high-cycle": {
		Name:    "high-cycle",
		Summary: "repeat-rich reference (~35% noisy tandem arrays) with dense small variation",
		FailureMode: "minimizer multi-hits and chaining ambiguity; MC sibling collapse and " +
			"seed-filter selectivity degrade on repeats",
		Population: func(c Config) Config {
			c.RepeatFrac = 0.35
			c.RepeatPeriod = 24
			c.SNPRate *= 4
			c.IndelRate *= 4
			return c
		},
	},
	"ultralong-hifi": {
		Name:    "ultralong-hifi",
		Summary: "HiFi-like reads stretched to 8 kb with a realistic indel component",
		FailureMode: "GWFA 2000 bp piecewise bridging (≥4 resume points per gap), per-read " +
			"kernel time skew across the query workers",
		Reads: func(c ReadConfig) ReadConfig {
			c.Length = 8_000
			c.SubRate = 0.004
			c.IndelRate = 0.01
			return c
		},
		ReadTrace: func(c ReadTraceConfig) ReadTraceConfig {
			c.ReadLen = 8_000
			c.SubRate = 0.004
			c.IndelRate = 0.01
			return c
		},
	},
	"contaminated": {
		Name:    "contaminated",
		Summary: "30% of reads are pure off-population noise, the rest carry 10x error",
		FailureMode: "seed-stage dead ends and filter rejects: unmapped-path handling, " +
			"wasted alignment work, chaff in result caches",
		Reads: func(c ReadConfig) ReadConfig {
			c.Contamination = 0.3
			c.SubRate *= 10
			c.IndelRate *= 10
			return c
		},
		ReadTrace: func(c ReadTraceConfig) ReadTraceConfig {
			c.Contamination = 0.3
			c.SubRate *= 10
			c.IndelRate *= 10
			return c
		},
	},
	"skewed-tenant": {
		Name:        "skewed-tenant",
		Summary:     "one hot query client issues most traffic; the rest form a long cold tail",
		FailureMode: "fairness: queue-share starvation of cold clients",
		ReadTrace: func(c ReadTraceConfig) ReadTraceConfig {
			c.ClientSkew = 0.35
			if c.Clients < 8 {
				c.Clients = 8
			}
			return c
		},
	},
	"flash-crowd": {
		Name:        "flash-crowd",
		Summary:     "Poisson arrivals with periodic 20x burst windows",
		FailureMode: "admission control: queue-depth watermarks and shed storms during bursts",
		ReadTrace: func(c ReadTraceConfig) ReadTraceConfig {
			c.RepeatRate = 0.3 // crowds re-request the same hot content
			return c
		},
		Arrival: func(c ArrivalConfig) ArrivalConfig {
			c.Bursts = 3
			c.BurstRate = c.BaseRate * 20
			if c.BurstLen <= 0 {
				c.BurstLen = 200 * time.Millisecond
			}
			return c
		},
	},
}

// Scenarios returns the catalog sorted by name.
func Scenarios() []Scenario {
	out := make([]Scenario, 0, len(catalog))
	for _, s := range catalog {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioNames returns the sorted catalog keys.
func ScenarioNames() []string {
	names := make([]string, 0, len(catalog))
	for name := range catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupScenario resolves a catalog name.
func LookupScenario(name string) (Scenario, error) {
	s, ok := catalog[name]
	if !ok {
		return Scenario{}, fmt.Errorf("gensim: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	return s, nil
}
