package gbwt

import (
	"bytes"
	"strings"
	"testing"

	"pangenomicsbench/internal/graph"
)

// paperIndex indexes Figure 4c's haplotypes 1→3→5 and 2→3→4, plus 1→2→3→4
// so that node 1 has two successors.
func paperIndex(t testing.TB) *Index {
	t.Helper()
	idx, err := Build(buildHaploGraph(t, 5, [][]graph.NodeID{{1, 3, 5}, {2, 3, 4}, {1, 2, 3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestDecodeRejectsInconsistentLF covers CRC-valid but inconsistent
// payloads: an LF offset that maps visits past the successor's record (or
// below it), or a successor without a record, would make Find index out of
// range after load.
func TestDecodeRejectsInconsistentLF(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(x *Index)
	}{
		{"offset past record", "outside", func(x *Index) {
			for _, rec := range x.records {
				for e := range rec.offsets {
					rec.offsets[e] += 1000
				}
			}
		}},
		{"negative offset", "outside", func(x *Index) {
			x.records[1].offsets[0] = -1
		}},
		{"missing successor record", "has no record", func(x *Index) {
			delete(x.records, 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx := paperIndex(t)
			tc.corrupt(idx)
			_, err := DecodeIndex(idx.AppendBinary(nil))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeIndex error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	blob := paperIndex(t).AppendBinary(nil)
	for name, data := range map[string][]byte{
		"no records": make([]byte, 8),
		"trailing":   append(blob, 0),
	} {
		if _, err := DecodeIndex(data); err == nil {
			t.Errorf("%s: DecodeIndex accepted a malformed payload", name)
		}
	}
}

// FuzzDecodeIndex: decoding never panics; an accepted payload re-encodes to
// exactly its input bytes, and Find over every recorded edge stays in range.
func FuzzDecodeIndex(f *testing.F) {
	f.Add(paperIndex(f).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := DecodeIndex(data)
		if err != nil {
			return
		}
		if !bytes.Equal(x.AppendBinary(nil), data) {
			t.Fatal("accepted payload does not re-encode to its input")
		}
		for id, rec := range x.records {
			for _, succ := range rec.succs {
				x.Find([]graph.NodeID{id, succ}, nil)
			}
		}
	})
}
