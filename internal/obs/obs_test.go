package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerRecordNoAlloc(t *testing.T) {
	tr := NewTracer(1 << 12)
	e := Event{Cycle: 1, Type: EvInject, Node: 3, Pkt: 42, Src: 3}
	per := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.Cycle++
			tr.Record(e)
		}
	})
	if per != 0 {
		t.Fatalf("Record allocates %.1f times per 64 events; want 0", per)
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Type: EvInject}) // must not panic
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should hold nothing")
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Record(Event{Cycle: uint64(i), Type: EvSink})
	}
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8 (ring capacity)", got)
	}
	ev := tr.Events()
	// Oldest surviving event is cycle 12 (20 recorded, 8 kept).
	for i, e := range ev {
		if want := uint64(12 + i); e.Cycle != want {
			t.Fatalf("event %d has cycle %d, want %d", i, e.Cycle, want)
		}
	}
	if tr.Recorded.Value != 20 {
		t.Fatalf("Recorded = %d, want 20", tr.Recorded.Value)
	}
	if tr.Dropped.Value != 12 {
		t.Fatalf("Dropped = %d, want 12", tr.Dropped.Value)
	}
}

// TestChromeTraceAfterWrap pins the export path once the ring has
// overwritten events: only the surviving window is emitted, and the metadata
// block reports the loss so `traceq check` can flag the trace as lossy.
func TestChromeTraceAfterWrap(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Record(Event{Cycle: uint64(i), Type: EvSink, Node: 1, Src: 0, Pkt: uint64(100 + i)})
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Ts uint64 `json:"ts"`
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		Metadata struct {
			RecordedEvents uint64 `json:"recordedEvents"`
			DroppedEvents  uint64 `json:"droppedEvents"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("wrapped trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 8 {
		t.Fatalf("exported %d events after wrap, want the 8 survivors", len(parsed.TraceEvents))
	}
	for i, e := range parsed.TraceEvents {
		if want := uint64(12 + i); e.Ts != want {
			t.Fatalf("event %d exported at ts=%d, want %d (oldest survivor first)", i, e.Ts, want)
		}
	}
	if parsed.Metadata.RecordedEvents != 20 || parsed.Metadata.DroppedEvents != 12 {
		t.Fatalf("metadata = %+v, want recordedEvents=20 droppedEvents=12", parsed.Metadata)
	}
}

func TestEventTypeNames(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		if ty.String() == "" || ty.String() == "unknown" {
			t.Fatalf("event type %d has no name", ty)
		}
	}
	if EventType(200).String() != "unknown" {
		t.Fatal("out-of-range type should stringify as unknown")
	}
}

// chromeTrace mirrors the subset of the Chrome trace-event format the
// exporter emits, enough to validate it parses and is reconstructable.
type chromeTrace struct {
	TraceEvents []struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   uint64           `json:"ts"`
		Pid  int              `json:"pid"`
		ID   uint64           `json:"id"`
		Args map[string]int64 `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(64)
	// One full packet lifecycle plus a global notification window.
	tr.Record(Event{Cycle: 10, Type: EvInject, Node: 0, Src: 0, Pkt: 7, Arg: 1})
	tr.Record(Event{Cycle: 11, Type: EvBufWrite, Node: 1, Src: 0, Pkt: 7, Port: 3, VNet: 0, VC: 0})
	tr.Record(Event{Cycle: 12, Type: EvSAGrant, Node: 1, Src: 0, Pkt: 7, Port: 1})
	tr.Record(Event{Cycle: 13, Type: EvNotifWindow, Node: -1, Src: -1, Arg: 3})
	tr.Record(Event{Cycle: 15, Type: EvOrderCommit, Node: 2, Src: 0, Pkt: 7, Arg: 0})
	tr.Record(Event{Cycle: 15, Type: EvSink, Node: 2, Src: 0, Pkt: 7})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 6+2 {
		t.Fatalf("got %d trace events, want 6 instants + 2 span markers", len(parsed.TraceEvents))
	}
	var begin, end bool
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "b":
			begin = true
			if e.Ts != 10 || e.ID != 7 {
				t.Fatalf("span begin at ts=%d id=%d, want ts=10 id=7", e.Ts, e.ID)
			}
		case "e":
			end = true
			if e.Ts != 15 || e.ID != 7 {
				t.Fatalf("span end at ts=%d id=%d, want ts=15 id=7", e.Ts, e.ID)
			}
		}
	}
	if !begin || !end {
		t.Fatal("packet 7 span (ph b/e) missing from trace")
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics(100, []string{"injected", "ejected"})
	if m.Due(50) {
		t.Fatal("Due(50) with interval 100")
	}
	if !m.Due(200) {
		t.Fatal("!Due(200) with interval 100")
	}
	m.Add(100, []float64{3, 2})
	m.Add(200, []float64{5, 4})
	if m.Samples() != 2 {
		t.Fatalf("Samples = %d, want 2", m.Samples())
	}

	var csv bytes.Buffer
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "cycle,injected,ejected\n100,3,2\n200,5,4\n"
	if csv.String() != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", csv.String(), want)
	}

	m.SetHeatmap(2, 1, []float64{0.1, 0.9})
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]interface{}
	if err := json.Unmarshal(js.Bytes(), &parsed); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, js.String())
	}
	if _, ok := parsed["heatmap"]; !ok {
		t.Fatal("metrics JSON missing heatmap")
	}
	hm := m.Heatmap()
	if !strings.Contains(hm, "@") {
		t.Fatalf("heatmap should mark the hot router with '@':\n%s", hm)
	}

	var nilM *Metrics
	if nilM.Due(100) || nilM.Samples() != 0 || nilM.Heatmap() != "" {
		t.Fatal("nil metrics should be inert")
	}
}

func TestWatchdog(t *testing.T) {
	delivered, inflight := uint64(0), true
	snapCalls := 0
	w := NewWatchdog(10,
		func() (uint64, bool) { return delivered, inflight },
		func() string { snapCalls++; return "SNAPSHOT: router 3 UO-RESP vc1" })

	// Progress every few cycles: never trips.
	for c := uint64(0); c < 100; c++ {
		if c%5 == 0 {
			delivered++
		}
		w.Observe(c)
	}
	if w.Stalled() {
		t.Fatal("watchdog tripped despite steady progress")
	}

	// Quiescent (nothing in flight): never trips.
	inflight = false
	for c := uint64(100); c < 200; c++ {
		w.Observe(c)
	}
	if w.Stalled() {
		t.Fatal("watchdog tripped while network was empty")
	}

	// Stall: in-flight packets, no deliveries.
	inflight = true
	for c := uint64(200); c < 300 && !w.Stalled(); c++ {
		w.Observe(c)
	}
	if !w.Stalled() {
		t.Fatal("watchdog failed to trip on a genuine stall")
	}
	if snapCalls != 1 {
		t.Fatalf("snapshot taken %d times, want exactly once", snapCalls)
	}
	if !strings.Contains(w.Report(), "router 3") {
		t.Fatalf("report should embed the snapshot, got:\n%s", w.Report())
	}
	if !strings.Contains(w.Report(), "no ejections for") {
		t.Fatalf("report should diagnose the stall, got:\n%s", w.Report())
	}

	// Zero threshold and nil receiver are inert.
	if NewWatchdog(0, nil, nil) != nil {
		t.Fatal("threshold 0 should yield a nil watchdog")
	}
	var nw *Watchdog
	nw.Observe(1)
	if nw.Stalled() || nw.Report() != "" {
		t.Fatal("nil watchdog should be inert")
	}
}
