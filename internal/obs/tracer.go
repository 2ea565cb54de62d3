package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"

	"scorpio/internal/stats"
)

// Tracer records lifecycle events into a preallocated ring buffer. A nil
// *Tracer is inert: Record on a nil receiver returns immediately, and every
// component additionally guards its hook sites with an explicit nil check so
// the disabled path is a single branch with no call.
//
// Record is safe for concurrent use — the parallel kernel's workers trace
// from multiple goroutines — and never allocates: the ring is sized up
// front and, when full, overwrites the oldest events while counting the
// loss in Dropped.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	next   int  // ring write cursor
	full   bool // ring has wrapped at least once

	// Recorded counts every event accepted; Dropped counts ring
	// overwrites (events lost from the front of the window).
	Recorded stats.Counter
	Dropped  stats.Counter
}

// NewTracer returns a tracer with a ring of the given capacity
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		events:   make([]Event, capacity),
		Recorded: stats.Counter{Name: "trace_events_recorded"},
		Dropped:  stats.Counter{Name: "trace_events_dropped"},
	}
}

// Record appends one event. Safe on a nil receiver.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.full {
		t.Dropped.Inc()
	}
	t.events[t.next] = e
	t.next++
	if t.next == len(t.events) {
		t.next = 0
		t.full = true
	}
	t.Recorded.Inc()
	t.mu.Unlock()
}

// Len reports the number of events currently held (≤ ring capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.events)
	}
	return t.next
}

// Events returns a copy of the buffered events in recording order (oldest
// first). The copy allocates; call it only after the run.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Event, t.next)
		copy(out, t.events[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// WriteChromeTrace emits the buffered events as Chrome trace-event JSON
// ({"traceEvents":[...]}), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Cycles map 1:1 to microseconds so Perfetto's time axis
// reads directly in simulated cycles.
//
// Each lifecycle event becomes an instant event (ph "i") on the track of
// the node it happened at; in addition, every packet with both an inject
// and a terminal (sink/order-commit) event gets an async span (ph "b"/"e",
// id = packet ID) so a transaction's full network journey shows as one bar.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	// Total order over every field. Under the parallel kernel, worker
	// interleaving shuffles the recording order of events from different
	// components within a cycle; a full-field comparison makes the exported
	// trace byte-identical across worker counts (the event-type enum is in
	// lifecycle order, so intra-cycle ordering stays causal per node).
	sort.Slice(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		switch {
		case a.Cycle != b.Cycle:
			return a.Cycle < b.Cycle
		case a.Node != b.Node:
			return a.Node < b.Node
		case a.Type != b.Type:
			return a.Type < b.Type
		case a.Pkt != b.Pkt:
			return a.Pkt < b.Pkt
		case a.Port != b.Port:
			return a.Port < b.Port
		case a.VNet != b.VNet:
			return a.VNet < b.VNet
		case a.VC != b.VC:
			return a.VC < b.VC
		default:
			return a.Arg < b.Arg
		}
	})

	// Packet span bounds: first inject and last terminal event per packet.
	type span struct {
		start, end uint64
		node       int32
		hasStart   bool
		hasEnd     bool
	}
	spans := make(map[uint64]*span)
	for i := range events {
		e := &events[i]
		if e.Pkt == 0 {
			continue
		}
		s := spans[e.Pkt]
		if s == nil {
			s = &span{}
			spans[e.Pkt] = s
		}
		switch e.Type {
		case EvInject:
			if !s.hasStart || e.Cycle < s.start {
				s.start = e.Cycle
				s.node = e.Node
				s.hasStart = true
			}
		case EvSink, EvOrderCommit:
			if !s.hasEnd || e.Cycle >= s.end {
				s.end = e.Cycle
				s.hasEnd = true
			}
		}
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...interface{}) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	for i := range events {
		e := &events[i]
		emit(`{"name":%q,"ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t","args":{"pkt":%d,"src":%d,"port":%d,"vnet":%d,"vc":%d,"arg":%d}}`,
			e.Type.String(), e.Cycle, e.Node, e.VNet+1, e.Pkt, e.Src, e.Port, e.VNet, e.VC, e.Arg)
	}
	// Async spans: one begin/end pair per fully observed packet.
	pkts := make([]uint64, 0, len(spans))
	for pkt, s := range spans {
		if s.hasStart && s.hasEnd && s.end >= s.start {
			pkts = append(pkts, pkt)
		}
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i] < pkts[j] })
	for _, pkt := range pkts {
		s := spans[pkt]
		emit(`{"name":"pkt","cat":"pkt","ph":"b","ts":%d,"pid":%d,"id":%d,"args":{"pkt":%d}}`,
			s.start, s.node, pkt, pkt)
		emit(`{"name":"pkt","cat":"pkt","ph":"e","ts":%d,"pid":%d,"id":%d}`,
			s.end, s.node, pkt)
	}
	// Trailing metadata records ring losses so consumers (traceq and its
	// check) can tell when span reconstruction is lossy. Perfetto ignores
	// unknown top-level keys.
	if _, err := fmt.Fprintf(bw, "\n],\"metadata\":{\"recordedEvents\":%d,\"droppedEvents\":%d}}\n",
		t.Recorded.Value, t.Dropped.Value); err != nil {
		return err
	}
	return bw.Flush()
}
