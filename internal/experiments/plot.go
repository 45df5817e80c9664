package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"logparse/internal/eval"
	"logparse/internal/parsers"
)

// Series is one line of an ASCII chart: points (X[i], Y[i]) drawn with
// Marker.
type Series struct {
	Name   string
	Marker byte
	X      []float64
	Y      []float64
}

// PlotASCII renders series on a character grid, optionally with
// logarithmic axes — Fig. 2 is a log-log plot in the paper, and `logeval
// -fig2 -plot` reproduces it as text. Overlapping points keep the marker
// drawn last; axis labels show the data range.
func PlotASCII(w io.Writer, title string, series []Series, width, height int, logX, logY bool) {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	tx := func(v float64) float64 {
		if logX {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if logY {
			return math.Log10(v)
		}
		return v
	}
	any := false
	for _, s := range series {
		for i := range s.X {
			if s.X[i] <= 0 && logX || s.Y[i] <= 0 && logY {
				continue
			}
			any = true
			minX = math.Min(minX, tx(s.X[i]))
			maxX = math.Max(maxX, tx(s.X[i]))
			minY = math.Min(minY, ty(s.Y[i]))
			maxY = math.Max(maxY, ty(s.Y[i]))
		}
	}
	if !any {
		fmt.Fprintf(w, "%s: no plottable points\n", title)
		return
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range series {
		for i := range s.X {
			if s.X[i] <= 0 && logX || s.Y[i] <= 0 && logY {
				continue
			}
			col := int((tx(s.X[i]) - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((ty(s.Y[i])-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = s.Marker
		}
	}
	fmt.Fprintln(w, title)
	for r, line := range grid {
		label := "          "
		if r == 0 {
			label = axisLabel(maxY, logY)
		}
		if r == height-1 {
			label = axisLabel(minY, logY)
		}
		fmt.Fprintf(w, "%10s |%s|\n", label, string(line))
	}
	fmt.Fprintf(w, "%10s +%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(w, "%10s  %-*s%s\n", "", width-len(axisLabel(maxX, logX)),
		axisLabel(minX, logX), axisLabel(maxX, logX))
	var legend []string
	for _, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.Marker, s.Name))
	}
	fmt.Fprintf(w, "%10s  legend: %s\n", "", strings.Join(legend, "  "))
}

// axisLabel formats an axis endpoint, undoing the log transform.
func axisLabel(v float64, logScale bool) string {
	if logScale {
		v = math.Pow(10, v)
	}
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// PlotFig2 renders a Fig. 2 panel (running time vs volume, log-log) as an
// ASCII chart, one series per parser the points hold, in run order, drawn
// with its row's marker.
func PlotFig2(w io.Writer, dataset string, points []eval.EfficiencyPoint) {
	var series []Series
	for _, parser := range axis(points, func(p eval.EfficiencyPoint) string { return p.Parser }) {
		s := Series{Name: parser, Marker: '*'}
		if row, err := parsers.ByName(parser); err == nil {
			s.Marker = row.Marker
		}
		for _, p := range points {
			if p.Parser != parser || p.Skipped {
				continue
			}
			s.X = append(s.X, float64(p.Lines))
			s.Y = append(s.Y, p.Elapsed.Seconds())
		}
		if len(s.X) > 0 {
			series = append(series, s)
		}
	}
	PlotASCII(w, fmt.Sprintf("Fig.2 (%s): running time [s] vs #lines (log-log)", dataset),
		series, 60, 16, true, true)
}
