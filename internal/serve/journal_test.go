package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/store"
)

func TestJournalBeginDoneReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.wal")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqA := pggbRequest([]string{"a", "b"})
	reqB := pggbRequest([]string{"c", "d", "e"})
	seqA, err := j.begin(reqA)
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := j.begin(reqB)
	if err != nil {
		t.Fatal(err)
	}
	if seqA == seqB {
		t.Fatalf("duplicate sequence %d", seqA)
	}
	j.done(seqA)
	j.Close() // crash before B completes

	j2, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Unfinished()
	if len(got) != 1 {
		t.Fatalf("unfinished = %d requests, want 1", len(got))
	}
	if !reflect.DeepEqual(got[0].Cohort, reqB.Cohort) || got[0].Tool != reqB.Tool {
		t.Fatalf("unfinished request = %+v, want cohort %v", got[0], reqB.Cohort)
	}
	// The sequence counter continues past replayed history — no reuse.
	seqC, err := j2.begin(pggbRequest([]string{"f", "g"}))
	if err != nil {
		t.Fatal(err)
	}
	if seqC <= seqB {
		t.Fatalf("sequence reused: new %d <= replayed %d", seqC, seqB)
	}
	// Retiring the recovered begin clears it for the next open.
	j2.done(seqB)
	j2.done(seqC)
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.wal")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := j.begin(pggbRequest([]string{"a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	j.done(seq)
	j.Close()

	// Crash mid-append: half a frame of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x13}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer j2.Close()
	if n := len(j2.Unfinished()); n != 0 {
		t.Fatalf("unfinished = %d, want 0 (the intact prefix was fully retired)", n)
	}
}

func TestJournalRejectsForeignRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.wal")
	w, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`{"op":"explode","seq":1}`)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := OpenJournal(path, nil); err == nil {
		t.Fatal("journal with unknown op opened")
	}

	path2 := filepath.Join(t.TempDir(), "serve.wal")
	w2, err := store.OpenWAL(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if _, err := OpenJournal(path2, nil); err == nil {
		t.Fatal("journal with undecodable record opened")
	}
}

// TestServiceJournalsBuilds: every leader Build leaves a begin+done pair, so
// a clean shutdown replays to an empty unfinished set.
func TestServiceJournalsBuilds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.wal")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	names, seqs := testCatalog(t, 3000, 4)
	s := testService(t, Config{Workers: 2, Journal: j}, names, seqs)
	if _, err := s.Build(context.Background(), pggbRequest(names[:3])); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(context.Background(), pggbRequest(names[:4])); err != nil {
		t.Fatal(err)
	}
	j.Close()

	recs, torn, err := store.ReplayWAL(path)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if len(recs) != 4 {
		t.Fatalf("journal holds %d records, want 4 (2×begin+done)", len(recs))
	}
	j2, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := len(j2.Unfinished()); n != 0 {
		t.Fatalf("unfinished after clean shutdown = %d, want 0", n)
	}
}

// TestRecoverReplaysUnfinished: a begin without a done (crash mid-build) is
// re-executed by Recover, retired, and absent on the next open. The begin
// is written by this journal, or is a record from before PGGBConfig and
// MCConfig dropped their single-valued fields (polish window, POA bands,
// layout seed, MC novelty thresholds), whose extra keys are ignored.
func TestRecoverReplaysUnfinished(t *testing.T) {
	names, seqs := testCatalog(t, 3000, 4)
	cohort, err := json.Marshal(names[:3])
	if err != nil {
		t.Fatal(err)
	}
	legacy := `{"op":"begin","seq":1,"tool":"pggb","cohort":` + string(cohort) +
		`,"pggb":{"K":15,"W":10,"Workers":0,"PolishWindow":600,"POABand":48,"LayoutIterations":0,"LayoutSeed":42}` +
		`,"mc":{"K":15,"W":10,"SegmentLen":512,"MapChunk":15000,"MinSpan":192,"MinNovel":24,"Divergence":0.06,"POABand":32,"LayoutIterations":4,"LayoutSeed":42,"Workers":0}}`
	legacyReq := pggbRequest(names[:3])
	legacyReq.MC = build.DefaultMCConfig()

	for _, tc := range []struct {
		name  string
		want  Request
		begin func(t *testing.T, path string)
	}{
		{"current", pggbRequest(names[:3]), func(t *testing.T, path string) {
			j1, err := OpenJournal(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j1.begin(pggbRequest(names[:3])); err != nil {
				t.Fatal(err)
			}
			j1.Close()
		}},
		{"removed-config-fields", legacyReq, func(t *testing.T, path string) {
			w, err := store.OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]byte(legacy)); err != nil {
				t.Fatal(err)
			}
			w.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "serve.wal")
			// "Process 1" accepts a request and dies before finishing it.
			tc.begin(t, path)

			// "Process 2" recovers: the request is re-enqueued and built.
			j2, err := OpenJournal(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			var rebuilt []Request
			s := testService(t, Config{
				Workers: 2,
				Journal: j2,
				OnResult: func(req Request, _ *build.Result) {
					rebuilt = append(rebuilt, req)
				},
			}, names, seqs)
			n, err := s.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 || len(rebuilt) != 1 || !reflect.DeepEqual(rebuilt[0], tc.want) {
				t.Fatalf("recover replayed %d (%+v), want the one crash-interrupted request %+v", n, rebuilt, tc.want)
			}
			j2.Close()

			j3, err := OpenJournal(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j3.Close()
			if n := len(j3.Unfinished()); n != 0 {
				t.Fatalf("unfinished after recovery = %d, want 0", n)
			}
		})
	}

	// A service with no journal recovers trivially.
	s2 := testService(t, Config{Workers: 1}, names, seqs)
	if n, err := s2.Recover(context.Background()); n != 0 || err != nil {
		t.Fatalf("journal-less recover = (%d, %v), want (0, nil)", n, err)
	}
}

func TestFairShareWorkers(t *testing.T) {
	cases := []struct{ procs, slots, want int }{
		{8, 4, 2},
		{8, 3, 3},
		{16, 5, 4},
		{4, 8, 1},
		{1, 4, 1},
		{8, 0, 8}, // no slot bound: the request gets every core
		{0, 4, 1}, // degenerate procs still yields a worker
	}
	for _, c := range cases {
		if got := fairShareWorkers(c.procs, c.slots); got != c.want {
			t.Errorf("fairShareWorkers(%d, %d) = %d, want %d", c.procs, c.slots, got, c.want)
		}
	}
}
