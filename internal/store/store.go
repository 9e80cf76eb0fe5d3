// Package store is the durability layer under the serving stack: versioned
// flat binary snapshot files (see format.go), a generation-directory
// snapshot store with atomic-rename publication, and a write-ahead log of
// accepted build requests. It exists so a restarted process serves the last
// published graph+index generation in milliseconds instead of re-running
// the O(n²) construction the paper shows dominates wall-clock — the same
// reason production pangenome pipelines persist and reuse their indexes.
//
// Publication follows the LevelDB/Badger manifest idiom: a generation is
// staged in a temp directory, fsynced, renamed to generation-NNNNNN, and
// only then does the CURRENT pointer file swap to it (itself via
// write-tmp + rename + fsync), so readers either see the previous complete
// generation or the new complete generation — never a torn one. The last K
// generations are retained; older ones are garbage-collected after the
// pointer swap.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrEmpty reports a store with no published generation yet.
var ErrEmpty = fmt.Errorf("store: no published generation")

const (
	currentFile  = "CURRENT"
	genPrefix    = "generation-"
	snapshotFile = "snapshot.pgs"
)

// Options parameterizes a Dir.
type Options struct {
	// Retain keeps the newest K generations on disk (the current one always
	// counts); ≤0 uses 4.
	Retain int
}

// Dir is one snapshot store directory. All methods are safe for concurrent
// use within a process; cross-process publication safety comes from the
// atomic rename + CURRENT swap protocol.
type Dir struct {
	path   string
	retain int
	mu     sync.Mutex
}

// Open creates (if needed) and opens a store directory.
func Open(path string, opts Options) (*Dir, error) {
	if opts.Retain <= 0 {
		opts.Retain = 4
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	return &Dir{path: path, retain: opts.Retain}, nil
}

// Path returns the store's root directory.
func (d *Dir) Path() string { return d.path }

// genName formats a generation directory name.
func genName(gen uint64) string { return fmt.Sprintf("%s%06d", genPrefix, gen) }

// parseGen extracts the generation number from a directory name.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, genPrefix) {
		return 0, false
	}
	var gen uint64
	if _, err := fmt.Sscanf(name[len(genPrefix):], "%d", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// Generations lists the published generation numbers, ascending.
func (d *Dir) Generations() ([]uint64, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", d.path, err)
	}
	var gens []uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if gen, ok := parseGen(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Publish writes one encoded snapshot file image (EncodeSections output) as
// the next generation and swaps CURRENT to it. Returns the generation
// number. The image is fully durable (file and directories fsynced) before
// the pointer swap; a crash at any point leaves CURRENT on a complete
// generation.
func (d *Dir) Publish(image []byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	gens, err := d.Generations()
	if err != nil {
		return 0, err
	}
	gen := uint64(1)
	if n := len(gens); n > 0 {
		gen = gens[n-1] + 1
	}

	// Stage: tmp dir + snapshot file, both fsynced before the rename.
	tmp, err := os.MkdirTemp(d.path, ".tmp-"+genName(gen)+"-")
	if err != nil {
		return 0, fmt.Errorf("store: stage generation %d: %w", gen, err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	if err := writeFileSync(filepath.Join(tmp, snapshotFile), image); err != nil {
		return 0, err
	}
	if err := syncDir(tmp); err != nil {
		return 0, err
	}
	final := filepath.Join(d.path, genName(gen))
	if err := os.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("store: publish generation %d: %w", gen, err)
	}
	if err := syncDir(d.path); err != nil {
		return 0, err
	}

	// Pointer swap: CURRENT names the new generation, atomically.
	if err := d.writeCurrent(gen); err != nil {
		return 0, err
	}
	d.collect(gen)
	return gen, nil
}

// writeCurrent atomically points CURRENT at gen.
func (d *Dir) writeCurrent(gen uint64) error {
	tmp := filepath.Join(d.path, currentFile+".tmp")
	if err := writeFileSync(tmp, []byte(genName(gen)+"\n")); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.path, currentFile)); err != nil {
		return fmt.Errorf("store: swap CURRENT to generation %d: %w", gen, err)
	}
	return syncDir(d.path)
}

// collect removes generations older than the newest retain (best effort —
// a failed removal is retried implicitly on the next publish).
func (d *Dir) collect(newest uint64) {
	gens, err := d.Generations()
	if err != nil {
		return
	}
	for _, g := range gens {
		if g+uint64(d.retain) <= newest {
			_ = os.RemoveAll(filepath.Join(d.path, genName(g)))
		}
	}
}

// Current returns the generation CURRENT points at, or ErrEmpty.
func (d *Dir) Current() (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(d.path, currentFile))
	if os.IsNotExist(err) {
		return 0, ErrEmpty
	}
	if err != nil {
		return 0, fmt.Errorf("store: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(raw))
	gen, ok := parseGen(name)
	if !ok {
		return 0, fmt.Errorf("%w: CURRENT names %q, want %sNNNNNN", ErrCorrupt, name, genPrefix)
	}
	return gen, nil
}

// SnapshotPath returns the snapshot file path of a generation.
func (d *Dir) SnapshotPath(gen uint64) string {
	return filepath.Join(d.path, genName(gen), snapshotFile)
}

// Load reads and verifies one generation's snapshot file.
func (d *Dir) Load(gen uint64) (map[string][]byte, error) {
	return readSectionFile(d.SnapshotPath(gen))
}

// LoadCurrent reads and verifies the generation CURRENT points at.
func (d *Dir) LoadCurrent() (uint64, map[string][]byte, error) {
	gen, err := d.Current()
	if err != nil {
		return 0, nil, err
	}
	secs, err := d.Load(gen)
	if err != nil {
		return 0, nil, err
	}
	return gen, secs, nil
}

// writeFileSync writes data and fsyncs the file before closing it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", path, err)
	}
	return nil
}
