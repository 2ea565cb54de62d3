package perfmon

import (
	"bytes"
	"strings"
	"testing"
)

func TestEffectiveStride(t *testing.T) {
	var nilMon *Mon
	if got := nilMon.EffectiveStride(); got != DefaultStride {
		t.Fatalf("nil monitor stride %d, want %d", got, DefaultStride)
	}
	m := New()
	if got := m.EffectiveStride(); got != DefaultStride {
		t.Fatalf("zero stride resolves to %d, want %d", got, DefaultStride)
	}
	m.Stride = 1
	if got := m.EffectiveStride(); got != 1 {
		t.Fatalf("explicit stride resolves to %d, want 1", got)
	}
}

func TestEnsureWorkersKeepsCounts(t *testing.T) {
	m := New()
	m.EnsureWorkers(2)
	m.Worker(1).EvalNs.Store(42)
	m.EnsureWorkers(4)
	if m.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", m.Workers())
	}
	if got := m.Worker(1).EvalNs.Load(); got != 42 {
		t.Fatalf("reshard dropped accumulated counts: eval = %d, want 42", got)
	}
}

func TestRebalanceRingKeepsNewest(t *testing.T) {
	m := New()
	const pushed = rebalanceRing + 10
	for i := 0; i < pushed; i++ {
		m.RecordRebalance(RebalanceEvent{Cycle: uint64(i)})
	}
	evs := m.rebalanceEvents()
	if len(evs) != rebalanceRing {
		t.Fatalf("ring kept %d events, want %d", len(evs), rebalanceRing)
	}
	if evs[0].Cycle != pushed-rebalanceRing || evs[len(evs)-1].Cycle != pushed-1 {
		t.Fatalf("ring kept cycles %d..%d, want the newest %d..%d",
			evs[0].Cycle, evs[len(evs)-1].Cycle, pushed-rebalanceRing, pushed-1)
	}
}

func TestWakeEdgeNames(t *testing.T) {
	want := map[WakeEdge]string{
		WakeFlit: "flit", WakeCredit: "credit", WakeNotif: "notif",
		WakeOrder: "order", WakeTimer: "timer", WakeOther: "other",
	}
	if len(want) != NumWakeEdges {
		t.Fatalf("edge table has %d entries, want %d", len(want), NumWakeEdges)
	}
	for e, name := range want {
		if e.String() != name {
			t.Errorf("edge %d renders %q, want %q", e, e.String(), name)
		}
	}
	if got := WakeEdge(200).String(); got != "other" {
		t.Errorf("out-of-range edge renders %q, want other", got)
	}
}

func TestActivityCountersWakeViews(t *testing.T) {
	var a ActivityCounters
	a.Wakes[WakeFlit] = 3
	a.Wakes[WakeTimer] = 4
	if got := a.TotalWakes(); got != 7 {
		t.Fatalf("total wakes %d, want 7", got)
	}
	m := a.WakesByEdge()
	if m["flit"] != 3 || m["timer"] != 4 || len(m) != NumWakeEdges {
		t.Fatalf("WakesByEdge = %v", m)
	}
}

func TestSameHost(t *testing.T) {
	a := Host()
	if !SameHost(a, a) {
		t.Fatal("a host differs from itself")
	}
	// Zero/unknown fields never count as a difference: pre-metadata files
	// must still gate.
	if !SameHost(a, HostInfo{}) {
		t.Fatal("an empty stamp must not read as a different host")
	}
	b := a
	b.NumCPU = a.NumCPU + 8
	if SameHost(a, b) {
		t.Fatal("differing CPU counts must read as different hosts")
	}
	c := a
	c.GoVersion = a.GoVersion + ".different"
	if SameHost(a, c) {
		t.Fatal("differing toolchains must read as different hosts")
	}
	d := a
	d.Commit = "somethingelse"
	if !SameHost(a, d) {
		t.Fatal("a commit difference alone is not a host difference")
	}
}

// buildReport assembles a report from a hand-filled monitor, the round-trip
// fixture for the JSON and table tests.
func buildReport() *Report {
	m := New()
	m.EnsureWorkers(2)
	w0 := m.Worker(0)
	w0.EvalNs.Store(600)
	w0.CommitNs.Store(200)
	w0.StepNs.Store(1000)
	w0.Sampled.Store(50)
	w1 := m.Worker(1)
	w1.EvalNs.Store(500)
	w1.SpinNs.Store(100)
	w1.ParkNs.Store(200)
	w1.Sampled.Store(50)
	w1.Led.Store(10)
	w1.Followed.Store(40)
	m.RecordRebalance(RebalanceEvent{Cycle: 7, Migrations: 3, ImbalanceBefore: 1.8, ImbalanceAfter: 1.1})
	var act ActivityCounters
	act.StepsExecuted = 100
	act.Parks = 20
	act.Wakes[WakeFlit] = 11
	return m.Report(RunInfo{
		Label: "test/run", ConfigDigest: "feedface", Workers: 2, Mode: "parallel",
		Cycles: 150, WallNs: 1_000_000, Activity: act, Rebalances: 1, Migrations: 3,
	})
}

func TestReportExtrapolationAndOther(t *testing.T) {
	r := buildReport()
	if len(r.PerWorker) != 2 {
		t.Fatalf("per-worker rows = %d, want 2", len(r.PerWorker))
	}
	// 50 sampled of 100 executed steps: everything scales 2x.
	w0 := r.PerWorker[0]
	if w0.EvalNs != 1200 || w0.CommitNs != 400 {
		t.Fatalf("worker 0 extrapolation: eval %d commit %d, want 1200/400", w0.EvalNs, w0.CommitNs)
	}
	// Other = (step 1000 - eval 600 - commit 200) * 2.
	if w0.OtherNs != 400 {
		t.Fatalf("worker 0 other = %d, want 400", w0.OtherNs)
	}
	w1 := r.PerWorker[1]
	if w1.OtherNs != 0 {
		t.Fatalf("worker 1 other = %d, want 0 (StepNs is driver-only)", w1.OtherNs)
	}
	if w1.SpinNs != 200 || w1.ParkNs != 400 {
		t.Fatalf("worker 1 barrier time: spin %d park %d, want 200/400", w1.SpinNs, w1.ParkNs)
	}
	if w1.EpochsLed != 10 || w1.EpochsFollowed != 40 {
		t.Fatalf("worker 1 epochs: led %d followed %d", w1.EpochsLed, w1.EpochsFollowed)
	}
	if r.CyclesPerSec != 150_000 {
		t.Fatalf("cycles/s = %v, want 150000 (150 cycles in 1ms)", r.CyclesPerSec)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := buildReport()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ReportSchema || got.Label != r.Label || got.ConfigDigest != r.ConfigDigest {
		t.Fatalf("envelope did not round-trip: %+v", got)
	}
	if got.Activity.StepsExecuted != 100 || got.Activity.ActivityCounters.Wakes != [NumWakeEdges]uint64{} {
		// The typed array is json:"-"; the named map carries the counts.
		t.Fatalf("activity census did not round-trip as expected: %+v", got.Activity)
	}
	if got.Activity.Wakes["flit"] != 11 {
		t.Fatalf("wake map did not round-trip: %v", got.Activity.Wakes)
	}
	if len(got.PerWorker) != 2 || got.PerWorker[1].ParkNs != 400 {
		t.Fatalf("per-worker rows did not round-trip: %+v", got.PerWorker)
	}
	if len(got.Rebalance) != 1 || got.Rebalance[0].Migrations != 3 {
		t.Fatalf("rebalance events did not round-trip: %+v", got.Rebalance)
	}
}

func TestParseReportRejects(t *testing.T) {
	if _, err := ParseReport([]byte("not json")); err == nil {
		t.Fatal("garbage parsed")
	}
	if _, err := ParseReport([]byte(`{"schema":"something-else/v1"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := ParseReport([]byte(`{"schema":"scorpio-perf/v9"}`)); err != nil {
		t.Fatalf("future schema version rejected: %v", err)
	}
}

func TestTableMentionsEveryLayer(t *testing.T) {
	tab := buildReport().Table()
	for _, want := range []string{
		"test/run", "parallel, workers 2", "cycles/s", "steps executed",
		"parks", "demote passes", "flit 11", "rebalances", "led/followed",
	} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}
