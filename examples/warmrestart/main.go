// Warmrestart: the persistence layer end to end. "Process 1" cold-builds a
// cohort, publishes it into the query registry, and persists it as a store
// generation — then dies with one more accepted build journaled but
// unfinished: its result is never published and its done record never
// lands. "Process 2" boots from the same store directory: it loads the last
// published generation in milliseconds (no construction), maps the same
// reads byte-identically, finds the crash-interrupted request in the WAL,
// and replays it to completion. It exits non-zero unless the WAL lists
// exactly that request and the replay completes exactly one build.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/serve"
	"pangenomicsbench/internal/store"
)

func main() {
	storeDir, err := os.MkdirTemp("", "warmrestart-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)
	walPath := filepath.Join(storeDir, "serve.wal")

	cfg := gensim.DefaultConfig()
	cfg.RefLen = 12_000
	cfg.Haplotypes = 4
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	names, seqs := pop.AssemblyView()
	toolCfg := mapserve.DefaultToolConfig(mapserve.ToolGiraffe)

	// Query reads sliced out of the assemblies, reused by both processes.
	var reads [][]byte
	for i := 0; i < 12; i++ {
		seq := seqs[i%len(seqs)]
		off := (i * 997) % (len(seq) - 150)
		reads = append(reads, seq[off:off+150])
	}

	// newCoordinator wires one "process": a store-backed builder whose
	// OnResult publishes each finished cohort into reg AND persists it —
	// unless dies reports that the process crashed before it could.
	newCoordinator := func(reg *mapserve.Registry, journal *serve.Journal, persist *mapserve.Persister, label string, dies func(serve.Request) bool) *serve.Service {
		n := 0
		svc := serve.New(serve.Config{
			CacheCapacity: 32 << 20,
			Journal:       journal,
			OnResult: func(req serve.Request, res *build.Result) {
				if dies != nil && dies(req) {
					return
				}
				n++
				snap, err := mapserve.SnapshotFromBuild(fmt.Sprintf("%s-%d", label, n), res, toolCfg)
				if err == nil {
					_, err = reg.Publish(snap)
				}
				if err == nil {
					var gen uint64
					var size int
					gen, size, err = persist.Save(snap)
					if err == nil {
						fmt.Printf("  [%s] built %v → store generation %d (%d bytes)\n", label, req.Cohort, gen, size)
					}
				}
				if err != nil {
					log.Fatal(err)
				}
			},
		})
		if err := svc.RegisterAssemblies(names, seqs); err != nil {
			log.Fatal(err)
		}
		return svc
	}

	// ---- process 1: cold start ----
	fmt.Println("process 1: cold start")
	sdir, err := store.Open(storeDir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	persist := mapserve.NewPersister(sdir, nil)
	j1, err := serve.OpenJournal(walPath, nil)
	if err != nil {
		log.Fatal(err)
	}
	reg1 := &mapserve.Registry{}
	// The crash: OnResult runs after a build's begin record is durable and
	// before its done record is appended, so holding the crash cohort there
	// until the journal is closed leaves that build begun but never done.
	crash := serve.Request{Tool: serve.ToolPGGB, Cohort: names[:3], PGGB: build.DefaultPGGBConfig()}
	begun := make(chan struct{})
	dead := make(chan struct{})
	b1 := newCoordinator(reg1, j1, persist, "cold", func(req serve.Request) bool {
		if !slices.Equal(req.Cohort, crash.Cohort) {
			return false
		}
		close(begun)
		<-dead
		return true
	})

	t0 := time.Now()
	full := serve.Request{Tool: serve.ToolPGGB, Cohort: names, PGGB: build.DefaultPGGBConfig()}
	if _, err := b1.Build(context.Background(), full); err != nil {
		log.Fatal(err)
	}
	coldDur := time.Since(t0)
	fmt.Printf("  [cold] construction took %v\n", coldDur.Round(time.Millisecond))

	q1 := mapserve.New(reg1, mapserve.Config{Workers: 2})
	before := make([]string, len(reads))
	for i, rd := range reads {
		resp, err := q1.Map(context.Background(), rd)
		if err != nil {
			log.Fatal(err)
		}
		before[i] = fmt.Sprintf("%+v", resp.Result)
	}
	fmt.Printf("  [cold] mapped %d reads\n", len(reads))

	// One more build is accepted... and the process "crashes" before it
	// finishes: the begin record is fsynced, then the journal is gone before
	// the result is published or the done can land.
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		_, _ = b1.Build(context.Background(), crash)
	}()
	<-begun
	j1.Close()
	close(dead)
	<-crashed
	q1.Close()
	fmt.Printf("  [cold] process dies before its build of %v is done\n\n", crash.Cohort)

	// ---- process 2: warm restart ----
	fmt.Println("process 2: warm restart from", storeDir)
	j2, err := serve.OpenJournal(walPath, nil)
	if err != nil {
		log.Fatal(err)
	}
	unfinished := j2.Unfinished()
	for _, r := range unfinished {
		fmt.Printf("  [warm] WAL holds a crash-interrupted build: %v\n", r.Cohort)
	}
	if len(unfinished) != 1 || !slices.Equal(unfinished[0].Cohort, crash.Cohort) {
		log.Fatalf("WAL lists %d unfinished builds, want exactly the crash cohort %v", len(unfinished), crash.Cohort)
	}

	reg2 := &mapserve.Registry{}
	t0 = time.Now()
	snap, gen, err := reg2.LoadLatest(sdir, nil)
	if err != nil {
		log.Fatal(err)
	}
	warmDur := time.Since(t0)
	fmt.Printf("  [warm] loaded %q (store generation %d) in %v — %.0f× faster than construction\n",
		snap.ID, gen, warmDur.Round(time.Microsecond), float64(coldDur)/float64(warmDur))

	q2 := mapserve.New(reg2, mapserve.Config{Workers: 2})
	defer q2.Close()
	identical := 0
	for i, rd := range reads {
		resp, err := q2.Map(context.Background(), rd)
		if err != nil {
			log.Fatal(err)
		}
		if fmt.Sprintf("%+v", resp.Result) == before[i] {
			identical++
		}
	}
	fmt.Printf("  [warm] %d/%d reads map byte-identically to process 1\n", identical, len(reads))

	b2 := newCoordinator(reg2, j2, persist, "warm", nil)
	n, err := b2.Recover(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  [warm] journal replay completed %d crash-interrupted build(s)\n", n)
	if n != 1 {
		log.Fatalf("journal replay completed %d builds, want 1", n)
	}

	gens, err := sdir.Generations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  [warm] store now holds generations %v\n", gens)
	if identical != len(reads) {
		log.Fatal("warm restart changed mapping results")
	}
}
