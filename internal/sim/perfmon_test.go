package sim

import (
	"sort"
	"strings"
	"testing"
	"time"

	"scorpio/internal/obs/perfmon"
)

// TestActivityCountersCensus pins the always-on event census against the
// bursty-idle workload whose schedule the activity tests already verify:
// parking, timed wakes and demote passes must all leave nonzero counts, and
// every cycle of the run must count as an executed step.
func TestActivityCountersCensus(t *testing.T) {
	const cycles = 20_000
	k, _ := buildBursters(8, 0, true)
	k.Run(cycles)
	a := k.ActivityCounters()
	if a.StepsExecuted != cycles {
		t.Fatalf("steps executed = %d, want every one of the %d cycles", a.StepsExecuted, cycles)
	}
	if a.Parks == 0 {
		t.Error("no parks recorded on a bursty-idle workload")
	}
	if a.Activations == 0 {
		t.Error("no activations recorded")
	}
	if a.DemotePasses == 0 {
		t.Error("no demote passes recorded")
	}
	if got := a.TotalWakes(); got != a.Wakes[WakeTimer] {
		// Bursters only self-schedule; no cross-unit edges fire.
		t.Errorf("total wakes %d != timer wakes %d; unexpected edges: %v", got, a.Wakes[WakeTimer], a.WakesByEdge())
	}
}

// TestWakeEdgeAttribution pins the per-edge wake taxonomy using the
// producer/consumer mailbox from the activity tests: deposits wake the
// consumer on the WakeOther edge, and the census must attribute them there.
func TestWakeEdgeAttribution(t *testing.T) {
	k := NewKernel()
	box := &mailbox{}
	c := &consumer{box: box}
	p := &producer{burster: burster{burstLen: 2, gap: 610, nextStart: 0}, box: box}
	k.Register(p)
	p.target = k.Register(c)
	k.Run(10_000)
	if len(c.got) == 0 {
		t.Fatal("degenerate run: consumer received nothing")
	}
	a := k.ActivityCounters()
	if a.Wakes[WakeOther] == 0 {
		t.Fatalf("producer deposits raised no WakeOther edges: %v", a.WakesByEdge())
	}
	// Wakes are edge-triggered and coalesce in the CAS-min mailbox, so the
	// count can trail the deposit count slightly — but never exceed it, and
	// a healthy run coalesces only a handful.
	deposits := uint64(len(c.got))
	if a.Wakes[WakeOther] > deposits || a.Wakes[WakeOther] < deposits-deposits/4 {
		t.Errorf("WakeOther count %d vs %d deposits delivered; expected near-1:1 attribution", a.Wakes[WakeOther], deposits)
	}
	if m := a.WakesByEdge(); m["other"] != a.Wakes[WakeOther] {
		t.Errorf("WakesByEdge map %v disagrees with the typed array", m)
	}
}

// TestPerfMonSampledAccountingSerial attaches a stride-1 monitor to a serial
// kernel and checks the exact-accounting contract: every executed step is
// sampled, evaluate+commit time is charged to worker 0, and the per-step
// envelope (StepNs) covers it.
func TestPerfMonSampledAccountingSerial(t *testing.T) {
	k, _ := buildBursters(8, 0, true)
	m := perfmon.New()
	m.Stride = 1
	k.SetPerfMon(m)
	k.Run(5_000)
	a := k.ActivityCounters()
	w := m.Worker(0)
	if got := w.Sampled.Load(); got != a.StepsExecuted {
		t.Fatalf("sampled %d steps at stride 1, want every executed step (%d)", got, a.StepsExecuted)
	}
	eval, commit, step := w.EvalNs.Load(), w.CommitNs.Load(), w.StepNs.Load()
	if eval == 0 || commit == 0 {
		t.Fatalf("no phase time recorded: eval %d ns, commit %d ns", eval, commit)
	}
	if step < eval+commit {
		t.Fatalf("step envelope %d ns < eval %d + commit %d: phases leak outside the step", step, eval, commit)
	}
}

// TestPerfMonStrideExtrapolation checks the report's scaling contract: at the
// default sparse stride the extrapolated report totals must land in the same
// ballpark as a stride-1 exact measurement of the identical workload.
func TestPerfMonStrideExtrapolation(t *testing.T) {
	measure := func(stride uint64) perfmon.WorkerReport {
		k, _ := buildBursters(8, 0, false) // skip off: uniform per-cycle cost
		m := perfmon.New()
		m.Stride = stride
		k.SetPerfMon(m)
		wall0 := time.Now()
		k.Run(20_000)
		r := k.PerfReport("bursters", "d", int64(time.Since(wall0)))
		if len(r.PerWorker) == 0 {
			t.Fatal("report missing per-worker rows")
		}
		return r.PerWorker[0]
	}
	// One pair of wall-clock runs compares two noise environments on a
	// loaded host. As in TestTelemetryOverheadGuard, measure interleaved
	// pairs, alternating which stride goes first, and take the median ratio;
	// an attempt poisoned by a sustained load burst is retried, while a
	// broken extrapolation fails every attempt.
	const pairs = 5
	ratios := make([]float64, pairs)
	for attempt := 1; ; attempt++ {
		for i := range ratios {
			var e, s perfmon.WorkerReport
			if i%2 == 0 {
				e = measure(1)
				s = measure(perfmon.DefaultStride)
			} else {
				s = measure(perfmon.DefaultStride)
				e = measure(1)
			}
			if s.SampledCycles*perfmon.DefaultStride < 20_000/2 {
				t.Fatalf("sparse monitor sampled only %d cycles", s.SampledCycles)
			}
			ratios[i] = float64(s.EvalNs) / float64(e.EvalNs)
		}
		sort.Float64s(ratios)
		ratio := ratios[pairs/2]
		if ratio >= 0.5 && ratio <= 2.0 {
			return
		}
		t.Logf("attempt %d: median stride-%d/exact eval ratio %.2f over %d pairs %v",
			attempt, perfmon.DefaultStride, ratio, pairs, ratios)
		if attempt == 3 {
			t.Fatalf("stride-%d extrapolated eval is off by a median ratio of %.2f across %d attempts",
				perfmon.DefaultStride, ratio, attempt)
		}
	}
}

// TestPerfReportAssembly checks the kernel-side report envelope: schema,
// label and digest pass-through, execution mode, cycle count, throughput and
// the activity census folded in.
func TestPerfReportAssembly(t *testing.T) {
	k, _ := buildBursters(8, 0, true)
	if k.PerfReport("x", "y", 1) != nil {
		t.Fatal("PerfReport must be nil without an attached monitor")
	}
	m := perfmon.New()
	k.SetPerfMon(m)
	k.Run(10_000)
	r := k.PerfReport("bursters", "cafef00d", int64(time.Millisecond))
	if r.Schema != perfmon.ReportSchema {
		t.Fatalf("schema %q", r.Schema)
	}
	if r.Label != "bursters" || r.ConfigDigest != "cafef00d" {
		t.Fatalf("label/digest not passed through: %q %q", r.Label, r.ConfigDigest)
	}
	if r.Mode != "serial" {
		t.Fatalf("mode %q, want serial", r.Mode)
	}
	if r.Cycles != 10_000 {
		t.Fatalf("cycles %d, want 10000", r.Cycles)
	}
	if r.CyclesPerSec <= 0 {
		t.Fatalf("cycles/s %v", r.CyclesPerSec)
	}
	if r.Activity.StepsExecuted == 0 || r.Activity.Parks == 0 {
		t.Fatalf("activity census missing from report: %+v", r.Activity)
	}
	if r.SampleStride != perfmon.DefaultStride {
		t.Fatalf("sample stride %d, want default %d", r.SampleStride, perfmon.DefaultStride)
	}
}

// TestActivityReportNamesParkedUnits checks the watchdog-facing text report:
// it must carry the census headline and name parked units with no pending
// wake (the classic lost-wake suspect list).
func TestActivityReportNamesParkedUnits(t *testing.T) {
	k := NewKernel()
	box := &mailbox{}
	c := &consumer{box: box}
	p := &producer{burster: burster{burstLen: 2, gap: 200_000, nextStart: 2}, box: box}
	k.Register(p)
	p.target = k.Register(c)
	k.Run(50) // the producer burst is done; both units sit parked
	rep := k.ActivityReport()
	for _, want := range []string{"activity:", "units active", "parks", "wakes by edge:"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("activity report missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(rep, "parked with no pending wake") {
		t.Fatalf("activity report does not name parked units:\n%s", rep)
	}
}
