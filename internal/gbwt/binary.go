package gbwt

import (
	"fmt"
	"sort"

	"pangenomicsbench/internal/binio"
	"pangenomicsbench/internal/graph"
)

// AppendBinary appends the GBWT's flat little-endian encoding to buf.
// Records are written in ascending node order — the same order Build
// creates them in (BWT first-symbol order) — and only what Find reads is
// stored: successor alphabet, LF offsets and body. The rank samples and the
// synthetic cache-model base addresses are pure functions of that data and
// are recomputed on decode, so the loaded index is field-identical to the
// built one (including the probe addresses the microarchitectural
// simulation sees). Layout:
//
//	u64 recordCount
//	per record (node ascending):
//	  u32 node
//	  u64 succCount, per successor: u32 node ID, u32 LF offset
//	  u64 bodyLen, per visit: u16 edge index
func (x *Index) AppendBinary(buf []byte) []byte {
	buf = binio.AppendU64(buf, uint64(len(x.records)))
	nodes := make([]graph.NodeID, 0, len(x.records))
	for id := range x.records {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
	for _, id := range nodes {
		rec := x.records[id]
		buf = binio.AppendU32(buf, uint32(id))
		buf = binio.AppendU64(buf, uint64(len(rec.succs)))
		for e := range rec.succs {
			buf = binio.AppendU32(buf, uint32(rec.succs[e]))
			buf = binio.AppendU32(buf, uint32(rec.offsets[e]))
		}
		buf = binio.AppendU64(buf, uint64(len(rec.body)))
		for _, e := range rec.body {
			buf = binio.AppendU16(buf, e)
		}
	}
	return buf
}

// DecodeIndex decodes an AppendBinary payload, recomputing the rank samples
// and record base addresses exactly as Build does. It rejects any payload
// whose LF-mapping could step outside a record, so Find on an accepted
// index never indexes out of range.
func DecodeIndex(data []byte) (*Index, error) {
	r := binio.NewReader(data)
	nrec := r.Count(4 + 8 + 8)
	if r.Err() == nil && nrec == 0 {
		return nil, fmt.Errorf("gbwt: decode: no records")
	}
	x := &Index{records: make(map[graph.NodeID]*record, nrec)}
	nextBase := uint64(1 << 20)
	prev := graph.NodeID(0)
	for i := 0; i < nrec; i++ {
		id := graph.NodeID(r.U32())
		if r.Err() == nil && id <= prev {
			return nil, fmt.Errorf("gbwt: decode: record %d node %d not ascending (previous %d)", i, id, prev)
		}
		prev = id
		rec := &record{}
		ns := r.Count(8)
		if ns > 1<<16 {
			return nil, fmt.Errorf("gbwt: decode: node %d has %d successors, more than a u16 edge index names", id, ns)
		}
		rec.succs = make([]graph.NodeID, ns)
		rec.offsets = make([]int32, ns)
		for e := 0; e < ns; e++ {
			rec.succs[e] = graph.NodeID(r.U32())
			rec.offsets[e] = int32(r.U32())
			if r.Err() == nil && e > 0 && rec.succs[e] <= rec.succs[e-1] {
				return nil, fmt.Errorf("gbwt: decode: node %d successor alphabet not ascending", id)
			}
		}
		nb := r.Count(2)
		rec.body = make([]uint16, nb)
		for k := 0; k < nb; k++ {
			rec.body[k] = r.U16()
			if r.Err() == nil && int(rec.body[k]) >= ns {
				return nil, fmt.Errorf("gbwt: decode: node %d visit %d takes edge %d of %d", id, k, rec.body[k], ns)
			}
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("gbwt: decode record %d: %w", i, r.Err())
		}
		// Derived state, recomputed with Build's exact formulas: sampled
		// edge ranks over the body, and the record's synthetic address.
		nSamples := nb/rankRate + 2
		rec.ranks = make([][]int32, ns)
		for e := range rec.ranks {
			rec.ranks[e] = make([]int32, nSamples)
		}
		counts := make([]int32, ns)
		for k := 0; k < nb; k++ {
			if k%rankRate == 0 {
				for e := range counts {
					rec.ranks[e][k/rankRate] = counts[e]
				}
			}
			counts[rec.body[k]]++
		}
		if nb > 0 {
			for e := range counts {
				rec.ranks[e][(nb-1)/rankRate+1] = counts[e]
			}
		}
		rec.base = nextBase
		nextBase += uint64(nb*2 + ns*16 + nSamples*4*ns)
		x.records[id] = rec
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("gbwt: decode: %w", r.Err())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("gbwt: decode: %d trailing bytes", r.Remaining())
	}
	// LF-mapping bounds: every visit taking edge e lands in succs[e]'s
	// record at offsets[e] + rank, so that whole run must fit its body.
	for id, rec := range x.records {
		for e, succ := range rec.succs {
			if succ == endMarker {
				continue
			}
			next, ok := x.records[succ]
			if !ok {
				return nil, fmt.Errorf("gbwt: decode: node %d successor %d has no record", id, succ)
			}
			end := int64(rec.offsets[e]) + int64(rec.rank(e, int32(len(rec.body)), nil))
			if rec.offsets[e] < 0 || end > int64(len(next.body)) {
				return nil, fmt.Errorf("gbwt: decode: node %d edge to %d maps visits [%d,%d) outside its %d-visit record",
					id, succ, rec.offsets[e], end, len(next.body))
			}
		}
	}
	return x, nil
}
