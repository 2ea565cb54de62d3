package system

import (
	"strings"
	"testing"

	"scorpio/internal/directory"
	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/trace"
)

// TestAuditedScorpioHealthy runs the full 36-core chip with the auditor
// attached: the run must succeed with zero violations while the auditor
// actually cross-checks work (commits, flits, shadow lines), and the latency
// attributor must decompose every measured miss.
func TestAuditedScorpioHealthy(t *testing.T) {
	opt := smallOptions(t, "barnes", 36)
	opt.WorkPerCore = 40
	opt.WarmupPerCore = 60
	opt.Obs = &obs.Options{Audit: true}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3_000_000)
	if err != nil {
		t.Fatalf("audited run failed: %v", err)
	}
	a := s.Obs.Auditor
	if a.Violated() {
		t.Fatalf("healthy run flagged: %s", a.Report())
	}
	front, slowest := s.order.Positions()
	if a.Commits() == 0 || front == 0 {
		t.Fatal("auditor cross-checked no order commits")
	}
	if a.FlitsChecked() == 0 {
		t.Fatal("auditor verified no flit deliveries")
	}
	if !strings.HasPrefix(a.Summary(), "audit: ok") {
		t.Fatalf("Summary() = %q", a.Summary())
	}
	// Every NIC must have committed the same number of ordered requests by
	// run end (the network drains), so commits = nodes × positions.
	if a.Commits() != uint64(36)*front || slowest != front {
		t.Fatalf("commits %d, slowest %d, front %d: NICs ended out of step", a.Commits(), slowest, front)
	}
	at := res.Obs.Attrib
	if at == nil {
		t.Fatal("attributor missing from audited run")
	}
	cacheN, memN := at.Misses()
	wantCache, wantMem := res.CacheServed.Count(), res.MemServed.Count()
	if cacheN != wantCache || memN != wantMem {
		t.Fatalf("attributor saw %d/%d misses, breakdowns saw %d/%d", cacheN, memN, wantCache, wantMem)
	}
	if cacheN+memN == 0 {
		t.Fatal("no misses attributed")
	}
	if !strings.Contains(at.Table(), "latency attribution") {
		t.Fatalf("attribution table malformed:\n%s", at.Table())
	}
}

// TestAuditedBaselinesHealthy attaches the auditor to each baseline machine:
// TokenB and INSO commit through the same global-order check as SCORPIO,
// and the directory machine gets the delivery-sanity subset.
func TestAuditedBaselinesHealthy(t *testing.T) {
	prof, err := trace.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []OrderingScheme{SchemeTokenB, SchemeINSO} {
		opt := DefaultBaselineOptions(scheme, prof)
		opt.WorkPerCore = 40
		opt.WarmupPerCore = 60
		opt.Obs = &obs.Options{Audit: true}
		b, err := NewBaseline(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(3_000_000); err != nil {
			t.Fatalf("audited %s run failed: %v", scheme, err)
		}
		if b.Obs.Auditor.Commits() == 0 {
			t.Fatalf("%s: auditor cross-checked no commits", scheme)
		}
	}
	dopt := DefaultDirectoryOptions(directory.LPD, prof)
	dopt.Net.Width, dopt.Net.Height = 4, 4
	dopt.WorkPerCore = 40
	dopt.WarmupPerCore = 60
	dopt.Obs = &obs.Options{Audit: true}
	d, err := NewDirectory(dopt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(3_000_000); err != nil {
		t.Fatalf("audited LPD-D run failed: %v", err)
	}
	if d.Obs.Auditor.FlitsChecked() == 0 {
		t.Fatal("LPD-D: auditor verified no flit deliveries")
	}
}

// TestAuditedParallelKernelHealthy exercises the auditor's mutex path under
// the worker-pool kernel: results and audit verdict must match the serial run.
func TestAuditedParallelKernelHealthy(t *testing.T) {
	opt := smallOptions(t, "fft", 16)
	opt.Workers = 4
	opt.Obs = &obs.Options{Audit: true}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3_000_000); err != nil {
		t.Fatalf("audited parallel run failed: %v", err)
	}
	if s.Obs.Auditor.Commits() == 0 {
		t.Fatal("auditor cross-checked no commits under the parallel kernel")
	}
}

// auditedPartialRun builds an audited 16-core machine and advances it until
// the auditor has cross-checked some real traffic, leaving the run mid-flight
// for a mutation to corrupt.
func auditedPartialRun(t *testing.T) *Scorpio {
	t.Helper()
	opt := smallOptions(t, "barnes", 16)
	opt.Obs = &obs.Options{Audit: true}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	s.Kernel.RunUntil(func() bool { return s.Obs.Auditor.Commits() >= 32 }, 3_000_000)
	if s.Obs.Auditor.Commits() < 32 {
		t.Fatal("partial run produced no ordered traffic")
	}
	return s
}

// corruptOrder reports a packet no other node will ever accept as NIC 3's
// next ordered request, once the machine has checked some real traffic: the
// mutation a real ordering bug would produce.
func corruptOrder(t *testing.T, m *machine) {
	t.Helper()
	front := func() uint64 { f, _ := m.order.Positions(); return f }
	m.Kernel.RunUntil(func() bool { return front() >= 32 }, 3_000_000)
	if front() < 32 {
		t.Fatal("partial run produced no ordered traffic")
	}
	m.order.Commit(3, 0xdeadbeef, m.Kernel.Cycle())
}

// TestAuditDetectsCorruptedCommitOrder corrupts one NIC's commit stream
// mid-run and checks the audited run aborts with a divergence diagnosis
// naming the culprit.
func TestAuditDetectsCorruptedCommitOrder(t *testing.T) {
	s := auditedPartialRun(t)
	corruptOrder(t, &s.machine)
	_, err := s.Run(3_000_000)
	if err == nil {
		t.Fatal("corrupted commit order did not abort the run")
	}
	for _, want := range []string{"audit violation", "global order diverged", "NIC 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error missing %q: %v", want, err)
		}
	}
}

// TestOrderCheckFailsUnauditedRuns: every ordered machine checks its global
// order on every run, so a corrupted commit fails a run with no auditor
// attached too, at its end.
func TestOrderCheckFailsUnauditedRuns(t *testing.T) {
	prof, err := trace.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("SCORPIO", func(t *testing.T) {
		s, err := NewScorpio(smallOptions(t, "barnes", 16))
		if err != nil {
			t.Fatal(err)
		}
		corruptOrder(t, &s.machine)
		_, err = s.Run(3_000_000)
		if err == nil || !strings.Contains(err.Error(), "system: SCORPIO/barnes global order diverged") {
			t.Fatalf("corrupted order not reported: %v", err)
		}
	})
	for _, scheme := range []OrderingScheme{SchemeTokenB, SchemeINSO} {
		t.Run(scheme.String(), func(t *testing.T) {
			opt := DefaultBaselineOptions(scheme, prof)
			opt.WorkPerCore = 40
			opt.WarmupPerCore = 60
			b, err := NewBaseline(opt)
			if err != nil {
				t.Fatal(err)
			}
			corruptOrder(t, &b.machine)
			_, err = b.Run(3_000_000)
			if err == nil || !strings.Contains(err.Error(), "global order diverged") {
				t.Fatalf("corrupted order not reported: %v", err)
			}
		})
	}
}

// TestOrderCheckCleanAtSmallTracker runs the chip with the shallowest
// tracker and multi-bit notifications, the settings that let nodes drift
// furthest apart relative to the check's derived window.
func TestOrderCheckCleanAtSmallTracker(t *testing.T) {
	opt := smallOptions(t, "fft", 36)
	opt.Core.NIC.TrackerDepth = 2
	opt.Core.Notif.BitsPerCore = 3
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if front, slowest := s.order.Positions(); front == 0 || slowest != front {
		t.Fatalf("front %d, slowest %d: want equal and nonzero", front, slowest)
	}
}

// TestAuditDetectsTwoOwners installs Modified for the same line at two tiles
// (the mutation a lost-invalidation bug would produce) and checks the run
// aborts naming the line and both NICs.
func TestAuditDetectsTwoOwners(t *testing.T) {
	s := auditedPartialRun(t)
	cycle := s.Kernel.Cycle()
	s.Obs.Auditor.LineState(0, 0xbad0bad0, audit.LineModified, cycle)
	s.Obs.Auditor.LineState(5, 0xbad0bad0, audit.LineModified, cycle+1)
	_, err := s.Run(3_000_000)
	if err == nil {
		t.Fatal("two-owner line did not abort the run")
	}
	msg := err.Error()
	for _, want := range []string{"audit violation", "two owners", "0xbad0bad0", "NIC 5", "NIC 0"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error missing %q: %v", want, err)
		}
	}
}

// TestAuditViolationCarriesSnapshot checks the report embeds the same
// network-state snapshot the watchdog would dump.
func TestAuditViolationCarriesSnapshot(t *testing.T) {
	s := auditedPartialRun(t)
	corruptOrder(t, &s.machine)
	_, err := s.Run(3_000_000)
	if err == nil {
		t.Fatal("violation did not abort")
	}
	for _, want := range []string{"global order diverged", "NIC 3", "mesh snapshot @cycle"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("violation report missing %q: %v", want, err)
		}
	}
}
