package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/perf"
)

// FuzzHandler posts arbitrary bodies to the worker daemon's /match and
// /configure endpoints. The handler must never panic, and no body may get a
// 5xx: malformed or oversized input is the caller's error.
func FuzzHandler(f *testing.F) {
	seq := []byte(strings.Repeat("ACGTTGCAAGCTTACG", 20))
	f.Add(false, []byte(`{"a":"a","b":"b","k":15,"w":10}`))
	f.Add(false, []byte(`{"a":"b","b":"a","k":15,"w":10}`))
	f.Add(false, []byte(`{"a":"a","b":"b","k":0,"w":-1}`))
	f.Add(false, []byte(`{"a":"a","b":"zz","k":15,"w":10}`))
	f.Add(false, []byte(`{"a":`))
	f.Add(false, []byte(`{"a":"`+strings.Repeat("x", maxMatchBody)+`","b":"y"}`))
	f.Add(true, []byte(`{"names":["c","d"],"seqs":["QUNHVA==","QUNHVA=="],"version":2}`))
	f.Add(true, []byte(`{"names":["c"],"seqs":[]}`))
	f.Add(true, []byte(`{"names":[""],"seqs":[""]}`))
	f.Add(true, []byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, configure bool, body []byte) {
		w := NewWorker("fuzz", 0)
		if err := w.Configure(ConfigPush{Names: []string{"a", "b"}, Seqs: [][]byte{seq, seq[7:]}, Version: 1}); err != nil {
			t.Fatal(err)
		}
		path := "/match"
		if configure {
			path = "/configure"
		}
		rec := httptest.NewRecorder()
		Handler(w).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: HTTP %d %s", path, body, rec.Code, rec.Body)
		}
	})
}

// TestHTTPWorkerEndToEnd drives two real worker daemons over loopback TCP:
// config push, sharded matching, heartbeats, and the unknown-assembly
// error mapping all cross the wire, and the merged result matches the
// single-process build exactly.
func TestHTTPWorkerEndToEnd(t *testing.T) {
	names, seqs := testCatalog(t, 5000, 5)

	var addrs []string
	for i := 0; i < 2; i++ {
		srv := NewWorkerServer(NewWorker("httpd", 0))
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, addr)
	}

	c := NewCoordinator(Config{Metrics: perf.NewMetrics()})
	t.Cleanup(c.Close)
	if err := c.RegisterAssemblies(names, seqs); err != nil {
		t.Fatal(err)
	}
	for i, addr := range addrs {
		if err := c.AddNode(addr, Dial(addr)); err != nil {
			t.Fatalf("AddNode %d: %v", i, err)
		}
	}

	want, _, err := build.AllPairMatches(context.Background(), seqs, testK, testW, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := c.AllPairMatches(context.Background(), names, testK, testW)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("HTTP fleet blocks differ from single-process build")
	}

	// Heartbeat payloads round-trip the wire.
	tr := Dial(addrs[0])
	t.Cleanup(func() { _ = tr.Close() })
	ping, err := tr.Ping(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ping.Assemblies != len(names) {
		t.Fatalf("daemon has %d assemblies, want %d", ping.Assemblies, len(names))
	}

	// Unknown-assembly replies map back onto the sentinel across HTTP.
	_, err = tr.Match(context.Background(), MatchRequest{A: "nope-a", B: "nope-b", K: testK, W: testW})
	if !errors.Is(err, ErrUnknownAssembly) {
		t.Fatalf("err = %v, want ErrUnknownAssembly", err)
	}

	// NodeInfos carries the daemon address for the /fleet admin view.
	for _, info := range c.NodeInfos() {
		if info.Addr == "" {
			t.Fatalf("node %s has no address", info.Name)
		}
	}
}
