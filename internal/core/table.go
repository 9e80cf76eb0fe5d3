package core

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Table is a renderable experiment result.
type Table struct {
	ID     string // experiment id, e.g. "table1", "fig6"
	Title  string
	Header []string
	Rows   [][]Cell
	Notes  []string
}

// Kind says where a cell's content comes from.
type Kind uint8

const (
	// Label is text: a row name, or a cell that holds no number.
	Label Kind = iota
	// Model is deterministic (the probe, the cache model, the SIMT
	// simulator, or a count of inputs): the same on every run and host.
	Model
	// Wall is measured on the host clock or derived from it (Table 1's
	// hours, Fig. 2's shares, Fig. 5's speedups): it moves between runs.
	Wall
)

// Format is how a cell prints its value.
type Format uint8

const (
	Plain   Format = iota // the cell's Text
	Fixed2                // two decimals: "3.02"
	Percent               // a fraction as a percentage, one decimal: "47.4%"
	Count                 // a whole number: "1024"
	Millis                // seconds as a duration rounded to the ms: "1.234s"
	Micros                // seconds as a duration rounded to the µs: "12.345ms"
)

// Cell is one table entry: a value, where it comes from, and how it prints.
type Cell struct {
	Kind   Kind
	Value  float64 // the number; durations are in seconds
	Text   string  // what a Plain cell prints
	Format Format
}

// label is a text cell.
func label(s string) Cell { return Cell{Kind: Label, Text: s, Format: Plain} }

// labels is a row of text cells.
func labels(texts ...string) []Cell {
	row := make([]Cell, len(texts))
	for i, t := range texts {
		row[i] = label(t)
	}
	return row
}

// model is a deterministic number.
func model(v float64, f Format) Cell { return Cell{Kind: Model, Value: v, Format: f} }

// wall is a number measured on the host clock, or derived from one.
func wall(v float64, f Format) Cell { return Cell{Kind: Wall, Value: v, Format: f} }

// String is the cell as Render prints it.
func (c Cell) String() string {
	switch c.Format {
	case Fixed2:
		return fmt.Sprintf("%.2f", c.Value)
	case Percent:
		return fmt.Sprintf("%.1f%%", c.Value*100)
	case Count:
		return fmt.Sprintf("%.0f", c.Value)
	case Millis:
		return seconds(c.Value).Round(time.Millisecond).String()
	case Micros:
		return seconds(c.Value).Round(time.Microsecond).String()
	}
	return c.Text
}

// seconds is the duration a value in seconds stands for. It inverts
// time.Duration.Seconds exactly for any duration under 52 days.
func seconds(v float64) time.Duration { return time.Duration(math.Round(v * 1e9)) }

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	rows := make([][]string, len(t.Rows))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for r, row := range t.Rows {
		rows[r] = make([]string, len(row))
		for i, c := range row {
			rows[r][i] = c.String()
			if i < len(widths) && len(rows[r][i]) > widths[i] {
				widths[i] = len(rows[r][i])
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
