package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Metrics is a periodic time-series sampler: every Interval cycles the
// simulation calls Add with one float per configured column. What gets
// sampled is the machine's business (the system layer wires a sample
// closure per protocol); this type only stores rows and renders them as
// CSV or JSON. A nil *Metrics is inert.
type Metrics struct {
	Interval uint64
	cols     []string
	rows     []float64 // flattened: len(cols) values per sample
	cycles   []uint64

	heatW, heatH int
	heat         []float64
}

// NewMetrics returns a sampler for the given column names. interval <= 0
// disables sampling (Due never fires).
func NewMetrics(interval uint64, cols []string) *Metrics {
	return &Metrics{Interval: interval, cols: cols}
}

// Due reports whether a sample should be taken at cycle. Safe on nil.
func (m *Metrics) Due(cycle uint64) bool {
	return m != nil && m.Interval > 0 && cycle%m.Interval == 0
}

// Add records one sample row. vals must have one entry per column; extra
// entries are dropped, missing ones read as 0.
func (m *Metrics) Add(cycle uint64, vals []float64) {
	if m == nil {
		return
	}
	m.cycles = append(m.cycles, cycle)
	for i := range m.cols {
		v := 0.0
		if i < len(vals) {
			v = vals[i]
		}
		m.rows = append(m.rows, v)
	}
}

// Samples reports the number of rows recorded.
func (m *Metrics) Samples() int {
	if m == nil {
		return 0
	}
	return len(m.cycles)
}

// Columns returns the column names (without the leading "cycle").
func (m *Metrics) Columns() []string {
	if m == nil {
		return nil
	}
	return m.cols
}

// SetHeatmap attaches an end-of-run per-router utilization grid (row-major,
// w×h, values in [0,1]).
func (m *Metrics) SetHeatmap(w, h int, util []float64) {
	if m == nil {
		return
	}
	m.heatW, m.heatH = w, h
	m.heat = util
}

// WriteCSV renders the time series with a header row, one line per sample.
func (m *Metrics) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "cycle,%s\n", strings.Join(m.cols, ","))
	n := len(m.cols)
	for i, cyc := range m.cycles {
		fmt.Fprintf(bw, "%d", cyc)
		for j := 0; j < n; j++ {
			fmt.Fprintf(bw, ",%g", m.rows[i*n+j])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSON renders {"columns":[...],"samples":[{"cycle":..,...},...],
// "heatmap":{...}} for downstream tooling.
func (m *Metrics) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"columns\":[\"cycle\"")
	for _, c := range m.cols {
		fmt.Fprintf(bw, ",%q", c)
	}
	bw.WriteString("],\"samples\":[")
	n := len(m.cols)
	for i, cyc := range m.cycles {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n{\"cycle\":%d", cyc)
		for j := 0; j < n; j++ {
			fmt.Fprintf(bw, ",%q:%g", m.cols[j], m.rows[i*n+j])
		}
		bw.WriteByte('}')
	}
	bw.WriteString("\n]")
	if m.heat != nil {
		fmt.Fprintf(bw, ",\"heatmap\":{\"width\":%d,\"height\":%d,\"util\":[", m.heatW, m.heatH)
		for i, v := range m.heat {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%.4f", v)
		}
		bw.WriteString("]}")
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

// heatGlyphs maps utilization deciles to a density ramp, darkest last.
const heatGlyphs = " .:-=+*#%@"

// HeatRows renders a row-major w×h utilization grid as one string per row
// (a glyph and a space per router), scaled by the grid's maximum, which it
// also returns, onto the ten-glyph ramp; an all-zero grid renders blank.
func HeatRows(w, h int, util []float64) (rows []string, peak float64) {
	for _, v := range util {
		if v > peak {
			peak = v
		}
	}
	rows = make([]string, h)
	for y := range rows {
		var b strings.Builder
		for x := 0; x < w; x++ {
			g := 0
			if peak > 0 {
				g = int(util[y*w+x] / peak * float64(len(heatGlyphs)-1))
			}
			b.WriteByte(heatGlyphs[g])
			b.WriteByte(' ')
		}
		rows[y] = b.String()
	}
	return rows, peak
}

// Heatmap renders the per-router utilization grid as ASCII art, one glyph
// per router plus the numeric scale, or "" if no heatmap was attached.
func (m *Metrics) Heatmap() string {
	if m == nil || m.heat == nil || m.heatW == 0 {
		return ""
	}
	rows, peak := HeatRows(m.heatW, m.heatH, m.heat)
	var b strings.Builder
	fmt.Fprintf(&b, "router utilization heatmap (flits routed per cycle, max %.3f):\n", peak)
	for _, r := range rows {
		b.WriteString("  ")
		b.WriteString(r)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  scale: ' '=idle '@'=%.3f\n", peak)
	return b.String()
}
