package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pangenomicsbench/internal/binio"
)

func testSections() []Section {
	return []Section{
		{Name: SectionMeta, Data: []byte("meta-blob")},
		{Name: SectionGraph, Data: bytes.Repeat([]byte{0xAB, 0xCD}, 300)},
		{Name: SectionGraphIndex, Data: []byte{}},
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	in := testSections()
	image, err := EncodeSections(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSections(image)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d sections, want %d", len(out), len(in))
	}
	for _, s := range in {
		if !bytes.Equal(out[s.Name], s.Data) {
			t.Errorf("section %q: %q != %q", s.Name, out[s.Name], s.Data)
		}
	}
}

// TestFormatErrors is the versioning/corruption acceptance test: every
// malformed image fails with a typed error — never a silent garbage decode.
func TestFormatErrors(t *testing.T) {
	image, err := EncodeSections(testSections())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, image...)
		copy(bad, "NOTSTORE")
		if _, err := DecodeSections(bad); !errors.Is(err, ErrMagic) {
			t.Fatalf("err = %v, want ErrMagic", err)
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		// Version 1 images carry the GBWT document array that version 2
		// dropped; they must be refused, not misparsed.
		for _, v := range []uint32{1, FormatVersion + 7} {
			bad := append([]byte{}, image...)
			copy(bad[8:], binio.AppendU32(nil, v))
			if _, err := DecodeSections(bad); !errors.Is(err, ErrVersion) {
				t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
			}
		}
	})
	t.Run("flipped blob byte", func(t *testing.T) {
		bad := append([]byte{}, image...)
		bad[len(bad)-1] ^= 0xFF // inside the last section's blob
		if _, err := DecodeSections(bad); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(image) - 1, len(image) / 2, headerSize + 3, 4, 0} {
			_, err := DecodeSections(image[:cut])
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrMagic) {
				t.Fatalf("truncate to %d: err = %v, want a typed format error", cut, err)
			}
		}
	})
	t.Run("implausible count", func(t *testing.T) {
		bad := append([]byte{}, image...)
		copy(bad[12:], binio.AppendU32(nil, 1<<30))
		if _, err := DecodeSections(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("encode rejects long names", func(t *testing.T) {
		if _, err := EncodeSections([]Section{{Name: "WAYTOOLONGNAME"}}); err == nil {
			t.Fatal("9+ byte section name accepted")
		}
		if _, err := EncodeSections(nil); err == nil {
			t.Fatal("empty section list accepted")
		}
	})
}

func TestDirPublishLoadRetention(t *testing.T) {
	dir, err := Open(filepath.Join(t.TempDir(), "snapshots"), Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := dir.Current(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Current on empty store = %v, want ErrEmpty", err)
	}
	if _, _, err := dir.LoadCurrent(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("LoadCurrent on empty store = %v, want ErrEmpty", err)
	}

	var images [][]byte
	for i := 0; i < 5; i++ {
		image, err := EncodeSections([]Section{{Name: SectionMeta, Data: []byte{byte(i), 0xEE}}})
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, image)
		gen, err := dir.Publish(image)
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(i+1) {
			t.Fatalf("publish %d: generation %d, want %d", i, gen, i+1)
		}
	}

	// CURRENT points at the newest; its content round-trips.
	gen, secs, err := dir.LoadCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 5 {
		t.Fatalf("current generation %d, want 5", gen)
	}
	if !bytes.Equal(secs[SectionMeta], []byte{4, 0xEE}) {
		t.Fatalf("current META = %v", secs[SectionMeta])
	}

	// Retain=2 keeps only the newest two generations.
	gens, err := dir.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("retained generations %v, want [4 5]", gens)
	}
	if _, err := dir.Load(1); err == nil {
		t.Fatal("collected generation still loads")
	}

	// No staging temp dirs survive a publish.
	entries, err := os.ReadDir(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == ".tmp" {
			t.Errorf("leftover staging dir %s", e.Name())
		}
	}
}

// TestDirCorruptGeneration: a flipped byte inside a published snapshot file
// is caught at load time by the section CRC.
func TestDirCorruptGeneration(t *testing.T) {
	dir, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	image, err := EncodeSections(testSections())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dir.Publish(image)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir.Path(), genName(gen), snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Load(gen); !errors.Is(err, ErrChecksum) {
		t.Fatalf("load of corrupted generation = %v, want ErrChecksum", err)
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")

	// Missing file replays as empty.
	recs, torn, err := ReplayWAL(path)
	if err != nil || torn || len(recs) != 0 {
		t.Fatalf("missing wal: recs=%d torn=%v err=%v", len(recs), torn, err)
	}

	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{7}, 500)}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("after close")); err == nil {
		t.Fatal("append after close accepted")
	}

	recs, torn, err = ReplayWAL(path)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(recs[i], p) {
			t.Errorf("record %d = %q, want %q", i, recs[i], p)
		}
	}

	// Appends continue across reopen (O_APPEND).
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("four")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs, _, _ = ReplayWAL(path)
	if len(recs) != 4 || string(recs[3]) != "four" {
		t.Fatalf("after reopen: %d records, last %q", len(recs), recs[len(recs)-1])
	}
}

// TestWALTornTail: a crash mid-append leaves a partial frame; replay keeps
// everything before it and reports torn.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("intact-1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("intact-2")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{
		{0x05},                    // partial length field
		binio.AppendU32(nil, 100), // length without payload
		append(binio.AppendU32(binio.AppendU32(nil, 4), 0xBAD), 'x', 'y', 'z', 'w'), // wrong CRC
	} {
		if err := os.WriteFile(path, append(append([]byte{}, whole...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, torn, err := ReplayWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if !torn {
			t.Errorf("tail %v: torn not reported", tail)
		}
		if len(recs) != 2 || string(recs[0]) != "intact-1" || string(recs[1]) != "intact-2" {
			t.Errorf("tail %v: intact prefix lost: %q", tail, recs)
		}
	}
}
