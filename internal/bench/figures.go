// Package bench regenerates every figure of the paper's evaluation (§V):
// the stale-read estimation studies of Fig. 4, the latency/throughput
// comparisons of Fig. 5, the measured-staleness comparison of Fig. 6, and
// the headline claims of §I. Each experiment builds a fresh simulated
// cluster, drives it with the YCSB workload model, and emits a Figure whose
// series mirror the paper's plots.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a named curve within a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced plot: series share the x-axis, exactly as in the
// paper.
type Figure struct {
	ID     string // e.g. "fig5a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Format renders the figure as an aligned text table, one row per x value
// and one column per series — the textual equivalent of the paper's plot.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	// Collect the union of x values in order.
	xsSeen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !xsSeen[p.X] {
				xsSeen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	// Header.
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %20s", s.Name)
	}
	b.WriteString("\n")
	lookup := make([]map[float64]float64, len(f.Series))
	for i, s := range f.Series {
		lookup[i] = make(map[float64]float64, len(s.Points))
		for _, p := range s.Points {
			lookup[i][p.X] = p.Y
		}
	}
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14s", trimFloat(x))
		for i := range f.Series {
			if y, ok := lookup[i][x]; ok {
				fmt.Fprintf(&b, " %20s", trimFloat(y))
			} else {
				fmt.Fprintf(&b, " %20s", "-")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(y: %s)\n", f.YLabel)
	return b.String()
}

// CSV renders the figure as long-form CSV (series,x,y).
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "figure,series,%s,%s\n", csvEscape(f.XLabel), csvEscape(f.YLabel))
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%s,%s,%s\n", f.ID, csvEscape(s.Name), trimFloat(p.X), trimFloat(p.Y))
		}
	}
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

func csvEscape(s string) string {
	s = strings.ReplaceAll(s, ",", ";")
	return strings.ReplaceAll(s, "\n", " ")
}
