// Package stats provides the counters, histograms and latency-breakdown
// accumulators used by every subsystem of the SCORPIO simulator.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a named monotonically increasing event count.
type Counter struct {
	Name  string
	Value uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Value++ }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.Value += n }

// Mean accumulates a running mean without storing samples.
type Mean struct {
	Sum   float64
	Count uint64
}

// Observe adds a sample.
func (m *Mean) Observe(v float64) {
	m.Sum += v
	m.Count++
}

// Value returns the mean of all samples, or 0 if there are none.
func (m *Mean) Value() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Merge folds other into m.
func (m *Mean) Merge(other Mean) {
	m.Sum += other.Sum
	m.Count += other.Count
}

// Histogram is a fixed-bucket latency histogram with overflow tracking.
type Histogram struct {
	BucketWidth uint64
	Buckets     []uint64
	Overflow    uint64
	sum         uint64
	count       uint64
	max         uint64
}

// NewHistogram returns a histogram with n buckets of the given width.
func NewHistogram(bucketWidth uint64, n int) *Histogram {
	h := MakeHistogram(bucketWidth, make([]uint64, n))
	return &h
}

// MakeHistogram returns a histogram of the given bucket width over buckets,
// which its owner cut from a slab of zeroed counters.
func MakeHistogram(bucketWidth uint64, buckets []uint64) Histogram {
	if bucketWidth == 0 {
		bucketWidth = 1
	}
	return Histogram{BucketWidth: bucketWidth, Buckets: buckets}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.sum += v
	h.count++
	if v > h.max {
		h.max = v
	}
	idx := int(v / h.BucketWidth)
	if idx >= len(h.Buckets) {
		h.Overflow++
		return
	}
	h.Buckets[idx]++
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the mean of all samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max reports the largest sample observed.
func (h *Histogram) Max() uint64 { return h.max }

// Sum reports the total of all samples observed (cycles across every
// transaction); the latency attributor uses it to compute each component's
// share of the end-to-end time.
func (h *Histogram) Sum() uint64 { return h.sum }

// Percentile returns an upper bound for the p-th percentile (0 < p <= 100)
// using bucket upper edges. When the target rank lands in the overflow
// region (samples beyond the last bucket), the result interpolates between
// the last bucket edge and the observed maximum proportionally to the
// rank's position within the overflow count, rather than collapsing every
// overflow percentile to the maximum.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(float64(h.count) * p / 100))
	if target == 0 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var seen uint64
	for i, b := range h.Buckets {
		seen += b
		if seen >= target {
			return uint64(i+1) * h.BucketWidth
		}
	}
	// The rank is one of the h.Overflow samples past the last bucket.
	edge := uint64(len(h.Buckets)) * h.BucketWidth
	if h.Overflow == 0 || h.max <= edge {
		return h.max
	}
	pos := target - (h.count - h.Overflow) // 1..Overflow
	frac := float64(pos) / float64(h.Overflow)
	return edge + uint64(frac*float64(h.max-edge)+0.5)
}

// Reset zeroes the histogram in place, keeping the bucket geometry. The
// telemetry sampler reuses one scratch histogram across per-core merges so
// live percentile reads stay allocation-free.
func (h *Histogram) Reset() {
	for i := range h.Buckets {
		h.Buckets[i] = 0
	}
	h.Overflow, h.sum, h.count, h.max = 0, 0, 0, 0
}

// Merge folds other into h. Both histograms must share the same bucket
// geometry; Merge panics otherwise, since silently mixing widths would
// corrupt every percentile.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.BucketWidth != other.BucketWidth || len(h.Buckets) != len(other.Buckets) {
		panic("stats: merging histograms with different bucket geometry")
	}
	for i, b := range other.Buckets {
		h.Buckets[i] += b
	}
	h.Overflow += other.Overflow
	h.sum += other.sum
	h.count += other.count
	if other.max > h.max {
		h.max = other.max
	}
}

// BreakdownComponent identifies one segment of the L2-miss latency breakdown
// reported in Figures 6b and 6c of the paper.
type BreakdownComponent int

// Latency breakdown segments. SCORPIO uses NetBcastReq/ReqOrdering; the
// directory baselines use NetReqToDir/DirAccess/NetDirToSharer. Both share
// SharerAccess and NetResp.
const (
	NetReqToDir BreakdownComponent = iota
	DirAccess
	NetDirToSharer
	NetBcastReq
	ReqOrdering
	SharerAccess
	NetResp
	numBreakdownComponents
)

// NumBreakdownComponents is the number of breakdown segments; callers build
// per-transaction segment arrays of this length instead of allocating a map
// per observed miss.
const NumBreakdownComponents = int(numBreakdownComponents)

// String returns the paper's label for the component.
func (b BreakdownComponent) String() string {
	switch b {
	case NetReqToDir:
		return "Network: Req to Dir"
	case DirAccess:
		return "Dir Access"
	case NetDirToSharer:
		return "Network: Dir to Sharer"
	case NetBcastReq:
		return "Network: Bcast Req"
	case ReqOrdering:
		return "Req Ordering"
	case SharerAccess:
		return "Sharer Access"
	case NetResp:
		return "Network: Resp"
	default:
		return fmt.Sprintf("BreakdownComponent(%d)", int(b))
	}
}

// Breakdown accumulates per-component mean latencies over a set of
// transactions.
type Breakdown struct {
	comps [numBreakdownComponents]Mean
	total Mean
}

// Observe records one transaction's segment latencies (cycles), indexed by
// BreakdownComponent. Missing segments should be left zero; they still count
// toward the mean so the stacked components sum to the mean total latency.
// The fixed-size array (rather than a map) keeps per-miss accounting off the
// heap.
func (b *Breakdown) Observe(segments *[NumBreakdownComponents]uint64) {
	var sum uint64
	for c, v := range segments {
		b.comps[c].Observe(float64(v))
		sum += v
	}
	b.total.Observe(float64(sum))
}

// Mean returns the mean latency of the given component.
func (b *Breakdown) Mean(c BreakdownComponent) float64 {
	return b.comps[c].Value()
}

// Total returns the mean summed latency.
func (b *Breakdown) Total() float64 { return b.total.Value() }

// Count returns the number of observed transactions.
func (b *Breakdown) Count() uint64 { return b.total.Count }

// Merge folds other into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for i := range b.comps {
		b.comps[i].Merge(other.comps[i])
	}
	b.total.Merge(other.total)
}

// String renders the breakdown as "label=mean" pairs for components with a
// non-zero mean, in declaration order.
func (b *Breakdown) String() string {
	var parts []string
	for c := BreakdownComponent(0); c < numBreakdownComponents; c++ {
		if m := b.comps[c].Value(); m > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.1f", c, m))
		}
	}
	return strings.Join(parts, " ")
}

// Table formats rows of (label, value) pairs with aligned columns; it is the
// shared renderer for the experiment harness output.
func Table(title string, header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// SortedKeys returns the keys of a string-keyed map in sorted order; the
// experiment harness uses it for stable output.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
