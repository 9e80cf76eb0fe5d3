package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/store"
)

// restart is the restart instance: a Giraffe snapshot persisted once in
// set-up; each op kills the query tier and boots a fresh one from the store
// until its first query is answered (time-to-first-query). The store file
// stays page-cache-hot, so the op repeats; the fsync-bound publish is
// reported per layer only.
type restart struct {
	dir      *store.Dir
	probeDir *store.Dir
	storeGen uint64
	svc      *mapserve.Service
	reads    [][]byte
	want     []pipeline.Result
	genS     float64
}

func setupRestart(p params) (instance, error) {
	// The simulator's truth graph at offline_map's size, not a built cohort:
	// a ~1 MB image makes store decode + rehydrate most of the op, which is
	// what this workload exists to show (on the 5 × 20 kb serving cohort the
	// first query's BatchWait is most of it instead).
	refLen := 100_000
	if p.smoke {
		refLen = 20_000
	}
	t0 := time.Now()
	cfg := gensim.DefaultConfig()
	cfg.RefLen, cfg.Haplotypes, cfg.Seed = refLen, 8, p.seed
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	rc := gensim.ShortReadConfig(64)
	rc.Seed = p.seed + 1
	reads, err := pop.SimulateReads(rc)
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	snap, err := mapserve.NewSnapshot("bench", pop.Graph, mapserve.DefaultToolConfig(mapserve.ToolGiraffe))
	if err != nil {
		return nil, err
	}
	r := &restart{genS: gen.Seconds()}
	// Pre-restart references: what the snapshot answered before it was
	// persisted is what every rebooted tier must answer.
	for _, rd := range reads {
		res, _, err := snap.Map(context.Background(), rd.Seq)
		if err != nil {
			return nil, err
		}
		r.reads = append(r.reads, rd.Seq)
		r.want = append(r.want, res)
	}
	if r.dir, err = store.Open(filepath.Join(p.tmp, "store"), store.Options{}); err != nil {
		return nil, err
	}
	if r.probeDir, err = store.Open(filepath.Join(p.tmp, "probe-store"), store.Options{}); err != nil {
		return nil, err
	}
	if r.storeGen, _, err = mapserve.NewPersister(r.dir, nil).Save(snap); err != nil {
		return nil, err
	}
	reg := &mapserve.Registry{}
	if _, _, err := reg.LoadLatest(r.dir, nil); err != nil {
		return nil, err
	}
	r.svc = mapserve.New(reg, mapserve.Config{})
	for i := 0; i < 4; i++ { // warm-up
		if err := r.op(0, i, nil); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *restart) op(_, i int, t *opTrace) error {
	i %= len(r.reads)
	t0 := time.Now()
	root := t.add(0, "bench.restart", t0, time.Hour) // closed below
	r.svc.Close()
	t1 := time.Now()
	t.add(root, "mapserve.close", t0, t1.Sub(t0))
	reg := &mapserve.Registry{}
	_, storeGen, err := reg.LoadLatest(r.dir, nil)
	t2 := time.Now()
	t.add(root, "mapserve.load_latest", t1, t2.Sub(t1))
	if err != nil {
		r.svc = mapserve.New(reg, mapserve.Config{}) // keep close() valid
		return err
	}
	r.svc = mapserve.New(reg, mapserve.Config{})
	t3 := time.Now()
	t.add(root, "mapserve.new", t2, t3.Sub(t2))
	resp, err := r.svc.Map(context.Background(), r.reads[i])
	if err != nil {
		return err
	}
	traceQuery(t, root, mapserve.ToolGiraffe, t3, time.Since(t3), resp)
	if t != nil {
		t.spans[root-1].End = time.Since(t.epoch).Nanoseconds()
	}
	if resp.Result != r.want[i] || storeGen != r.storeGen || resp.Generation != 1 {
		return fmt.Errorf("restart %d: got %+v from store generation %d (registry generation %d), pre-restart %+v from generation %d",
			i, resp.Result, storeGen, resp.Generation, r.want[i], r.storeGen)
	}
	return nil
}

func (r *restart) verify() (int, error) { return 0, nil }
func (r *restart) close()               { r.svc.Close() }

func (r *restart) layers(ts *traceSet, budget time.Duration, out map[string]float64) error {
	out["gensim.generate_s"] = r.genS
	mapserveLayers(ts, mapserve.ToolGiraffe, out)
	out["mapserve.first_query_ms"] = median(ts.durationsMs("mapserve.map"))

	// LoadLatest returns no split, so the store layer is called directly on
	// the same generation: read+verify, rehydrate, and the write side.
	var load, rehydrate, allocs []float64
	var secs map[string][]byte
	deadline := time.Now().Add(budget / 2)
	for n := 0; n < 5 || time.Now().Before(deadline); n++ {
		m0, _ := mallocs()
		t0 := time.Now()
		_, s, err := r.dir.LoadCurrent()
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := mapserve.SnapshotFromStore(s); err != nil {
			return err
		}
		rehydrate = append(rehydrate, float64(time.Since(t1))/1e6)
		load = append(load, float64(t1.Sub(t0))/1e6)
		m1, _ := mallocs()
		allocs = append(allocs, float64(m1-m0))
		secs = s
	}
	out["store.load_ms"] = median(load)
	out["store.rehydrate_ms"] = median(rehydrate)
	out["store.load_allocs"] = median(allocs)

	data, err := store.DecodeSnapshot(secs)
	if err != nil {
		return err
	}
	var image []byte
	d, err := timeIt(func() error {
		image, err = data.Encode()
		return err
	})
	if err != nil {
		return err
	}
	out["store.encode_ms"] = float64(d) / 1e6
	out["store.image_mb"] = float64(len(image)) / 1e6
	d, err = timeIt(func() error {
		_, err := r.probeDir.Publish(image)
		return err
	})
	if err != nil {
		return err
	}
	out["store.publish_ms"] = float64(d) / 1e6
	return nil
}
