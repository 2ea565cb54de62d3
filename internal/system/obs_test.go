package system

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/sim"
)

// TestHealthyRunWatchdogSilent arms every observability feature on a normal
// 16-core SCORPIO run: the watchdog must stay silent, the run must succeed,
// and the metrics sampler must have collected a consistent time series.
func TestHealthyRunWatchdogSilent(t *testing.T) {
	opt := smallOptions(t, "barnes", 16)
	opt.Obs = &obs.Options{MetricsInterval: 200, Watchdog: 5000}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3_000_000)
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if s.Obs.Stalled() {
		t.Fatalf("healthy run tripped the watchdog:\n%s", s.Obs.StallReport())
	}
	m := res.Obs.Metrics
	if m == nil || m.Samples() == 0 {
		t.Fatal("metrics sampler collected nothing")
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,"+strings.Join(metricsColumns, ",") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	if len(lines) != m.Samples()+1 {
		t.Fatalf("CSV has %d rows, want %d samples + header", len(lines)-1, m.Samples())
	}
	if !strings.Contains(m.Heatmap(), "\n") {
		t.Fatal("heatmap missing after successful run")
	}
}

// chromeTrace mirrors the Chrome trace-event JSON envelope.
type chromeTrace struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Args struct {
			Pkt uint64 `json:"pkt"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceReconstructsTransactionLifecycle runs the 36-core chip with
// tracing on and checks that the exported Chrome trace contains at least one
// transaction whose full inject -> order-commit -> sink path is
// reconstructable, with the phases in causal order.
func TestTraceReconstructsTransactionLifecycle(t *testing.T) {
	opt := smallOptions(t, "barnes", 36)
	opt.WorkPerCore = 30
	opt.WarmupPerCore = 30
	opt.Obs = &obs.Options{Trace: true}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Obs.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	// Reconstruct per-packet lifecycles from the instant events.
	type life struct{ inject, commit, sink int64 }
	lives := map[uint64]*life{}
	get := func(pkt uint64) *life {
		l := lives[pkt]
		if l == nil {
			l = &life{inject: -1, commit: -1, sink: -1}
			lives[pkt] = l
		}
		return l
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "i" || ev.Args.Pkt == 0 {
			continue
		}
		switch ev.Name {
		case "inject":
			get(ev.Args.Pkt).inject = ev.Ts
		case "order-commit":
			get(ev.Args.Pkt).commit = ev.Ts
		case "sink":
			get(ev.Args.Pkt).sink = ev.Ts
		}
	}
	complete := 0
	for pkt, l := range lives {
		if l.inject < 0 || l.commit < 0 || l.sink < 0 {
			continue
		}
		if l.inject > l.commit || l.commit > l.sink {
			t.Fatalf("packet %d lifecycle out of order: inject %d, order-commit %d, sink %d",
				pkt, l.inject, l.commit, l.sink)
		}
		complete++
	}
	if complete == 0 {
		t.Fatal("no transaction has a complete inject -> order-commit -> sink path")
	}
	t.Logf("%d events, %d transactions fully reconstructable", len(tr.TraceEvents), complete)
}

// TestWatchdogStallErrorCarriesSnapshot forces a stall at the system level
// by arming an absurdly tight watchdog: the ordered network cannot possibly
// deliver within one cycle of every observation, so the run must abort with
// the network snapshot in the error rather than hang.
func TestWatchdogStallErrorCarriesSnapshot(t *testing.T) {
	opt := smallOptions(t, "barnes", 16)
	opt.Obs = &obs.Options{Watchdog: 1}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(3_000_000)
	if err == nil {
		t.Fatal("watchdog threshold 1 did not abort the run")
	}
	if !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), "no ejections for") {
		t.Fatalf("stall error missing diagnosis: %v", err)
	}
	if !strings.Contains(err.Error(), "outstanding misses:\n  node ") || !strings.Contains(err.Error(), " reqID ") {
		t.Fatalf("stall error does not list the outstanding misses: %v", err)
	}
}

// stuckMiss is a machine reader whose one L2 miss waits on a request held at
// its memory controller: nothing is in flight and deliveries stay flat.
type stuckMiss struct{}

func (stuckMiss) read(c *reading) { c.ejected, c.outstanding = 7, 1 }
func (stuckMiss) inflight() bool  { return false }
func (stuckMiss) snapshot(uint64) string {
	return "outstanding misses:\n  node 3 write line 0x40 reqID 9 issued at cycle 5\n"
}

// TestWatchdogTripsOnStuckMiss pins that an outstanding miss counts as
// pending work: with the network empty, a miss that never completes must
// still trip the watchdog, and the report must name it.
func TestWatchdogTripsOnStuckMiss(t *testing.T) {
	mesh, err := noc.NewMesh(noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := buildObs(&obs.Options{Watchdog: 50}, &machine{Kernel: sim.NewKernel()}, mesh, stuckMiss{})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := uint64(0); cycle < 200 && !o.Stalled(); cycle++ {
		o.Watchdog.Observe(cycle)
	}
	if !o.Stalled() {
		t.Fatal("a miss outstanding for 200 cycles with nothing in flight did not trip a 50-cycle watchdog")
	}
	if !strings.Contains(o.StallReport(), "reqID 9") {
		t.Fatalf("stall report does not name the miss:\n%s", o.StallReport())
	}
}
