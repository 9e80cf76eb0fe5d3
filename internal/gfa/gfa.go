// Package gfa reads and writes Graphical Fragment Assembly (GFA) v1 files,
// the interchange format every tool in the paper's pipelines consumes and
// produces (Minigraph, vg, seqwish, smoothXG, ODGI all speak GFA).
//
// The subset implemented covers S (segment), L (link) and P (path) records
// on the forward strand, which is sufficient for the directed sequence
// graphs this suite builds.
package gfa

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pangenomicsbench/internal/graph"
)

// Write serializes g as GFA v1.
func Write(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "H\tVN:Z:1.0")
	ids := g.SortedNodeIDs()
	for _, id := range ids {
		fmt.Fprintf(bw, "S\t%d\t%s\n", id, g.Seq(id))
	}
	for _, id := range ids {
		for _, to := range g.Out(id) {
			fmt.Fprintf(bw, "L\t%d\t+\t%d\t+\t0M\n", id, to)
		}
	}
	for _, p := range g.Paths() {
		var sb strings.Builder
		for i, id := range p.Nodes {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d+", id)
		}
		fmt.Fprintf(bw, "P\t%s\t%s\t*\n", p.Name, sb.String())
	}
	return bw.Flush()
}

// Read parses a GFA v1 stream into a graph. Segment names must be positive
// integers (as produced by Write and by the construction pipelines); they
// are compacted into dense node IDs preserving relative order.
func Read(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<28)

	type link struct{ from, to int }
	type path struct {
		name  string
		steps []int
	}
	segs := map[int][]byte{}
	var links []link
	var paths []path
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if text == "" || text[0] == '#' {
			continue
		}
		fields := strings.Split(text, "\t")
		switch fields[0] {
		case "H":
			// header: ignored
		case "S":
			if len(fields) < 3 {
				return nil, fmt.Errorf("gfa: line %d: S record needs name and sequence", line)
			}
			name, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("gfa: line %d: non-integer segment name %q", line, fields[1])
			}
			if _, dup := segs[name]; dup {
				return nil, fmt.Errorf("gfa: line %d: duplicate segment %d", line, name)
			}
			if fields[2] == "*" || fields[2] == "" {
				return nil, fmt.Errorf("gfa: line %d: segment %d has no sequence", line, name)
			}
			// \r\n inside a sequence would be eaten by line trimming when the
			// graph is written and re-parsed; reject so accepted graphs
			// always round-trip.
			if strings.ContainsAny(fields[2], "\t\r\n") {
				return nil, fmt.Errorf("gfa: line %d: segment %d sequence contains control characters", line, name)
			}
			segs[name] = []byte(fields[2])
		case "L":
			if len(fields) < 5 {
				return nil, fmt.Errorf("gfa: line %d: truncated L record", line)
			}
			if fields[2] != "+" || fields[4] != "+" {
				return nil, fmt.Errorf("gfa: line %d: only forward-strand links supported", line)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("gfa: line %d: non-integer link endpoints", line)
			}
			links = append(links, link{from, to})
		case "P":
			if len(fields) < 3 {
				return nil, fmt.Errorf("gfa: line %d: truncated P record", line)
			}
			var steps []int
			for _, step := range strings.Split(fields[2], ",") {
				step = strings.TrimSpace(step)
				if step == "" {
					continue
				}
				if !strings.HasSuffix(step, "+") {
					return nil, fmt.Errorf("gfa: line %d: only forward-strand path steps supported (%q)", line, step)
				}
				id, err := strconv.Atoi(step[:len(step)-1])
				if err != nil {
					return nil, fmt.Errorf("gfa: line %d: bad path step %q", line, step)
				}
				steps = append(steps, id)
			}
			paths = append(paths, path{fields[1], steps})
		default:
			// Unknown record types (W, C, ...) are skipped.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gfa: %w", err)
	}

	names := make([]int, 0, len(segs))
	for n := range segs {
		names = append(names, n)
	}
	sort.Ints(names)
	remap := make(map[int]graph.NodeID, len(names))
	g := graph.New()
	for _, n := range names {
		remap[n] = g.AddNode(segs[n])
	}
	for _, l := range links {
		from, ok1 := remap[l.from]
		to, ok2 := remap[l.to]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("gfa: link %d→%d references unknown segment", l.from, l.to)
		}
		g.AddEdge(from, to)
	}
	for _, p := range paths {
		nodes := make([]graph.NodeID, 0, len(p.steps))
		for _, s := range p.steps {
			id, ok := remap[s]
			if !ok {
				return nil, fmt.Errorf("gfa: path %q references unknown segment %d", p.name, s)
			}
			nodes = append(nodes, id)
		}
		if err := g.AddPath(p.name, nodes); err != nil {
			return nil, err
		}
	}
	return g, nil
}
