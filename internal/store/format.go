package store

import (
	"fmt"
	"hash/crc32"
	"os"

	"pangenomicsbench/internal/binio"
)

// File format: a fixed header, a section table, then the section blobs
// packed back to back. Everything is little-endian; blobs are flat (no
// pointer chasing — each is one contiguous AppendBinary payload), so a
// loader reads the table, checks each section's CRC32 and hands the blob to
// its decoder.
//
//	offset 0: magic "PGSTORE1" (8 bytes)
//	offset 8: u32 format version (FormatVersion)
//	offset 12: u32 section count
//	then per section: 8-byte name (space padded), u64 offset, u64 length,
//	  u32 CRC32 (IEEE) of the blob
//	then the blobs, at the recorded offsets.
const (
	magic = "PGSTORE1"
	// FormatVersion is bumped on any incompatible layout change; loading a
	// file with a different version fails with ErrVersion rather than
	// misinterpreting bytes.
	FormatVersion = 1

	headerSize       = 8 + 4 + 4
	sectionEntrySize = 8 + 8 + 8 + 4
)

// Well-known section names.
const (
	SectionMeta       = "META"
	SectionGraph      = "GRAPH"
	SectionGraphIndex = "MINIDX"
	SectionGBWT       = "GBWT"
)

// Format errors. Loaders wrap them with file/section context; callers match
// with errors.Is.
var (
	ErrMagic    = fmt.Errorf("store: not a snapshot file (bad magic)")
	ErrVersion  = fmt.Errorf("store: unknown format version")
	ErrCorrupt  = fmt.Errorf("store: corrupt snapshot file")
	ErrChecksum = fmt.Errorf("store: section checksum mismatch")
)

// Section is one named blob of a snapshot file.
type Section struct {
	Name string
	Data []byte
}

// EncodeSections assembles a snapshot file image from sections, in order.
func EncodeSections(sections []Section) ([]byte, error) {
	if len(sections) == 0 {
		return nil, fmt.Errorf("store: no sections to encode")
	}
	buf := make([]byte, 0, headerSize+len(sections)*sectionEntrySize)
	buf = append(buf, magic...)
	buf = binio.AppendU32(buf, FormatVersion)
	buf = binio.AppendU32(buf, uint32(len(sections)))
	off := uint64(headerSize + len(sections)*sectionEntrySize)
	for _, s := range sections {
		if len(s.Name) == 0 || len(s.Name) > 8 {
			return nil, fmt.Errorf("store: section name %q not in 1..8 bytes", s.Name)
		}
		var name [8]byte
		copy(name[:], s.Name)
		for i := len(s.Name); i < 8; i++ {
			name[i] = ' '
		}
		buf = append(buf, name[:]...)
		buf = binio.AppendU64(buf, off)
		buf = binio.AppendU64(buf, uint64(len(s.Data)))
		buf = binio.AppendU32(buf, crc32.ChecksumIEEE(s.Data))
		off += uint64(len(s.Data))
	}
	for _, s := range sections {
		buf = append(buf, s.Data...)
	}
	return buf, nil
}

// DecodeSections parses and verifies a snapshot file image: magic, version,
// table sanity, and every section's CRC32. The returned map's blobs alias
// data.
func DecodeSections(data []byte) (map[string][]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrMagic, data[:8], magic)
	}
	r := binio.NewReader(data[8:])
	version := r.U32()
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrVersion, version, FormatVersion)
	}
	count := int(r.U32())
	if count <= 0 || headerSize+count*sectionEntrySize > len(data) {
		return nil, fmt.Errorf("%w: implausible section count %d for a %d-byte file", ErrCorrupt, count, len(data))
	}
	out := make(map[string][]byte, count)
	for i := 0; i < count; i++ {
		nameRaw := string(data[headerSize+i*sectionEntrySize : headerSize+i*sectionEntrySize+8])
		r := binio.NewReader(data[headerSize+i*sectionEntrySize+8 : headerSize+(i+1)*sectionEntrySize])
		off := r.U64()
		length := r.U64()
		sum := r.U32()
		name := trimName(nameRaw)
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %q spans [%d,%d) of a %d-byte file (truncated?)",
				ErrCorrupt, name, off, off+length, len(data))
		}
		blob := data[off : off+length]
		if crc32.ChecksumIEEE(blob) != sum {
			return nil, fmt.Errorf("%w: section %q (%d bytes at offset %d)", ErrChecksum, name, length, off)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		out[name] = blob
	}
	return out, nil
}

// trimName strips the space padding of an 8-byte section name.
func trimName(s string) string {
	for len(s) > 0 && s[len(s)-1] == ' ' {
		s = s[:len(s)-1]
	}
	return s
}

// readSectionFile loads and verifies a snapshot file from disk.
func readSectionFile(path string) (map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	secs, err := DecodeSections(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return secs, nil
}
