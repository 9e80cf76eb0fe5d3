package core

import (
	"fmt"
	"time"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/gbwt"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/layout"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
)

// Kernel is one benchmark-suite entry (Table 3): a named kernel with its
// parent tool, input count, and a runner that executes the whole corpus,
// optionally instrumented.
type Kernel struct {
	Name       string
	ParentTool string
	InputType  string
	Inputs     int
	// Run executes the kernel over its corpus; probe may be nil.
	Run func(probe *perf.Probe) error
}

// measurement is what the suite records about one kernel corpus: the
// report of one probed run and the wall time of one unprobed run.
type measurement struct {
	report perf.Report
	wall   time.Duration
}

// gsswKernel runs a GSSW variant (align.GSSW or align.GSSWLean) over a
// captured Vg Map corpus.
func gsswKernel(name string, inputs []pipeline.GSSWInput,
	gssw func(*graph.Graph, []byte, bio.Scoring, *perf.Probe) (align.GraphResult, error)) Kernel {
	return Kernel{
		Name: name, ParentTool: "Vg Map", InputType: "Read Fragment", Inputs: len(inputs),
		Run: func(p *perf.Probe) error {
			for _, in := range inputs {
				if _, err := gssw(in.Sub, in.Query, bio.DefaultScoring, p); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// Kernels returns the CPU kernel registry over the suite's corpora, built
// on the first call. The set mirrors Table 3's CPU rows: GSSW, GBWT, GBV,
// GWFA-lr, GWFA-cr, TC, PGSGD.
func (s *Suite) Kernels() ([]Kernel, error) {
	if s.kernels != nil {
		return s.kernels, nil
	}
	gssw, err := s.GSSWInputs()
	if err != nil {
		return nil, err
	}
	ks := []Kernel{gsswKernel("GSSW", gssw, align.GSSW)}

	gbwtIn, err := s.GBWTInputs()
	if err != nil {
		return nil, err
	}
	idx, err := gbwt.Build(s.Pop.Graph)
	if err != nil {
		return nil, err
	}
	ks = append(ks, Kernel{
		Name: "GBWT", ParentTool: "Vg Giraffe", InputType: "GBWT Query", Inputs: len(gbwtIn),
		Run: func(p *perf.Probe) error {
			for _, q := range gbwtIn {
				idx.Find(q.Nodes, p)
			}
			return nil
		},
	})

	gbv, err := s.GBVInputs()
	if err != nil {
		return nil, err
	}
	ks = append(ks, Kernel{
		Name: "GBV", ParentTool: "GraphAligner", InputType: "Clusters", Inputs: len(gbv),
		Run: func(p *perf.Probe) error {
			for _, in := range gbv {
				if _, err := align.GBV(in.Sub, in.Query, p); err != nil {
					return err
				}
			}
			return nil
		},
	})

	for _, mode := range []struct {
		name string
		chr  bool
		in   string
	}{{"GWFA-lr", false, "Read Gaps"}, {"GWFA-cr", true, "Chrom Gaps"}} {
		inputs, err := s.GWFAInputs(mode.chr)
		if err != nil {
			return nil, err
		}
		ks = append(ks, Kernel{
			Name: mode.name, ParentTool: "Minigraph", InputType: mode.in, Inputs: len(inputs),
			Run: func(p *perf.Probe) error {
				for _, in := range inputs {
					q := in.Query
					if len(q) > 2000 {
						q = q[:2000]
					}
					if _, err := align.GWFA(in.G, in.Start, q, p); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}

	tcBuilder, err := s.TCBuilder()
	if err != nil {
		return nil, err
	}
	ks = append(ks, Kernel{
		Name: "TC", ParentTool: "PGGB", InputType: "Alignments", Inputs: int(tcBuilder.Total()),
		Run: func(p *perf.Probe) error {
			tcBuilder.Transclose(p)
			return nil
		},
	})

	lg, err := s.LayoutGraph()
	if err != nil {
		return nil, err
	}
	ks = append(ks, Kernel{
		Name: "PGSGD", ParentTool: "PGGB", InputType: "Pangenome", Inputs: lg.NumNodes(),
		Run: func(p *perf.Probe) error {
			l, err := layout.New(lg, 31)
			if err != nil {
				return err
			}
			params := layout.DefaultParams(lg)
			params.Iterations = 4
			params.UpdatesPerIter = 100_000
			l.Run(params, p)
			return nil
		},
	})

	s.kernels = ks
	return ks, nil
}

// timed returns the wall time of one unprobed run of k's corpus, timed as
// TimeKernel does on the first request for k.Name and stored for later ones.
func (s *Suite) timed(k Kernel) (time.Duration, error) { return memo(&s.walls, k, TimeKernel) }

// profiled returns the report of one probed run of k's corpus, profiled as
// ProfileKernel does on the first request for k.Name and stored for later
// ones.
func (s *Suite) profiled(k Kernel) (perf.Report, error) {
	return memo(&s.reports, k, ProfileKernel)
}

// measure returns both halves of k's measurement. A table asks only for the
// half it shows, so a table of wall times runs no probe and a table of
// model columns runs no timed pass; every wall cell times an unprobed run.
func (s *Suite) measure(k Kernel) (measurement, error) {
	wall, err := s.timed(k)
	if err != nil {
		return measurement{}, err
	}
	rep, err := s.profiled(k)
	return measurement{report: rep, wall: wall}, err
}

// memo returns (*m)[k.Name], running run(k) and storing its result on the
// first request for that name.
func memo[V any](m *map[string]V, k Kernel, run func(Kernel) (V, error)) (V, error) {
	if v, ok := (*m)[k.Name]; ok {
		return v, nil
	}
	v, err := run(k)
	if err != nil {
		return v, fmt.Errorf("kernel %s: %w", k.Name, err)
	}
	if *m == nil {
		*m = make(map[string]V)
	}
	(*m)[k.Name] = v
	return v, nil
}

// measureNamed measures the registry kernel with the given name.
func (s *Suite) measureNamed(name string) (measurement, error) {
	k, err := s.kernelNamed(name)
	if err != nil {
		return measurement{}, err
	}
	return s.measure(k)
}

// kernelNamed returns the registry kernel with the given name.
func (s *Suite) kernelNamed(name string) (Kernel, error) {
	ks, err := s.Kernels()
	if err != nil {
		return Kernel{}, err
	}
	for _, k := range ks {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("core: no kernel %q in the registry", name)
}

// TimeKernel measures a kernel's uninstrumented wall time.
func TimeKernel(k Kernel) (time.Duration, error) {
	t0 := time.Now()
	if err := k.Run(nil); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// ProfileKernel runs a kernel instrumented and reduces the event stream to
// a perf report (Fig. 6/7/8, Table 6).
func ProfileKernel(k Kernel) (perf.Report, error) {
	probe := perf.NewProbe()
	if err := k.Run(probe); err != nil {
		return perf.Report{}, err
	}
	if probe.Instructions() == 0 {
		return perf.Report{}, fmt.Errorf("core: kernel %s recorded no instructions", k.Name)
	}
	return perf.NewReport(k.Name, probe), nil
}
