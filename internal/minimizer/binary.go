package minimizer

import (
	"fmt"

	"pangenomicsbench/internal/binio"
	"pangenomicsbench/internal/graph"
)

// AppendBinary appends the index's flat little-endian encoding to buf.
// Hashes are written ascending; each hash's occurrence list is written in
// stored order, because occurrence order feeds anchor order and therefore
// mapping tie-breaks — the decode must reproduce it exactly. The dedupe set
// is not encoded: it is derivable (one key per stored occurrence) and is
// rebuilt on decode, so an index loaded from disk accepts AddPath exactly
// like the original. Layout:
//
//	u32 k, u32 w
//	u64 hashCount, then per hash: u64 hash, u64 occCount,
//	  per occurrence: u32 node, u32 offset
func (x *GraphIndex) AppendBinary(buf []byte) []byte {
	buf = binio.AppendU32(buf, uint32(x.k))
	buf = binio.AppendU32(buf, uint32(x.w))
	buf = binio.AppendU64(buf, uint64(len(x.hits)))
	for _, h := range x.Hashes() {
		locs := x.hits[h]
		buf = binio.AppendU64(buf, h)
		buf = binio.AppendU64(buf, uint64(len(locs)))
		for _, loc := range locs {
			buf = binio.AppendU32(buf, uint32(loc.Node))
			buf = binio.AppendU32(buf, uint32(loc.Offset))
		}
	}
	return buf
}

// DecodeGraphIndex decodes an AppendBinary payload.
func DecodeGraphIndex(data []byte) (*GraphIndex, error) {
	r := binio.NewReader(data)
	k := int(r.U32())
	w := int(r.U32())
	if r.Err() == nil && (k < 1 || k > 31 || w < 1) {
		return nil, fmt.Errorf("minimizer: decode: invalid parameters k=%d w=%d", k, w)
	}
	nh := r.Count(16)
	x := &GraphIndex{
		k: k, w: w,
		hits:   make(map[uint64][]GraphLocation, nh),
		dedupe: make(map[occKey]struct{}),
	}
	for i := 0; i < nh; i++ {
		h := r.U64()
		no := r.Count(8)
		if r.Err() != nil {
			break
		}
		if _, dup := x.hits[h]; dup {
			return nil, fmt.Errorf("minimizer: decode: duplicate hash %#x", h)
		}
		locs := make([]GraphLocation, no)
		for o := 0; o < no; o++ {
			locs[o] = GraphLocation{Node: graph.NodeID(r.U32()), Offset: int(r.U32())}
			x.dedupe[occKey{locs[o].Node, locs[o].Offset, h}] = struct{}{}
		}
		x.hits[h] = locs
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("minimizer: decode graph index: %w", r.Err())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("minimizer: decode graph index: %d trailing bytes", r.Remaining())
	}
	return x, nil
}
