package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"scorpio/internal/obs/perfmon"
)

func discardOutput(t *testing.T) {
	t.Helper()
	prev := out
	out = io.Discard
	t.Cleanup(func() { out = prev })
}

func captureOutput(t *testing.T) *strings.Builder {
	t.Helper()
	prev := out
	var sb strings.Builder
	out = &sb
	t.Cleanup(func() { out = prev })
	return &sb
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func benchWith(host perfmon.HostInfo, entries ...*benchEntry) benchFile {
	return benchFile{Host: &host, Benchmarks: entries}
}

func entry(name string, minNs, allocs, bytes float64) *benchEntry {
	return &benchEntry{Name: name, MinNsPerOp: minNs, MeanNsPerOp: minNs, MeanAllocsOp: allocs, MeanBytesOp: bytes}
}

func TestSniff(t *testing.T) {
	discardOutput(t)
	if k := sniff("x", []byte(`{"schema":"scorpio-perf/v1"}`)); k != "perf-report" {
		t.Fatalf("sniff(report) = %q", k)
	}
	if k := sniff("x", []byte(`{"benchmarks":[]}`)); k != "bench" {
		t.Fatalf("sniff(bench) = %q", k)
	}
}

func TestDiffBenchSelfIsClean(t *testing.T) {
	discardOutput(t)
	h := perfmon.Host()
	f := marshal(t, benchWith(h, entry("B/one", 1000, 10, 4096)))
	reg, warn := diffBench("a", f, "b", f)
	if reg != 0 || warn != 0 {
		t.Fatalf("self-diff: regressions=%d warnings=%d, want 0/0", reg, warn)
	}
}

// TestDiffBenchTimeRegression: a time row 50% slower is printed with its
// delta but does not gate; two committed baselines differ by host drift.
func TestDiffBenchTimeRegression(t *testing.T) {
	sb := captureOutput(t)
	h := perfmon.Host()
	oldF := marshal(t, benchWith(h, entry("B/one", 1000, 10, 4096)))
	newF := marshal(t, benchWith(h, entry("B/one", 1500, 10, 4096)))
	reg, warn := diffBench("a", oldF, "b", newF)
	if reg != 0 || warn != 0 {
		t.Fatalf("regressions=%d warnings=%d, want 0/0 (time does not gate)", reg, warn)
	}
	if !strings.Contains(sb.String(), "+50.0%") {
		t.Fatalf("output missing the time delta:\n%s", sb.String())
	}
}

func TestDiffBenchAllocRegression(t *testing.T) {
	discardOutput(t)
	h := perfmon.Host()
	oldF := marshal(t, benchWith(h, entry("B/one", 1000, 10, 4096)))
	newF := marshal(t, benchWith(h, entry("B/one", 1000, 20, 4096)))
	reg, _ := diffBench("a", oldF, "b", newF)
	if reg != 1 {
		t.Fatalf("regressions = %d, want 1 (allocs doubled)", reg)
	}
	// Within the 5%+1 slack: 10 -> 11 allocs is not a regression.
	newOK := marshal(t, benchWith(h, entry("B/one", 1000, 11, 4096)))
	reg, _ = diffBench("a", oldF, "b", newOK)
	if reg != 0 {
		t.Fatalf("regressions = %d, want 0 (within alloc slack)", reg)
	}
}

func TestDiffBenchCrossHostDowngrades(t *testing.T) {
	sb := captureOutput(t)
	h := perfmon.Host()
	other := h
	other.NumCPU = h.NumCPU + 8
	oldF := marshal(t, benchWith(h, entry("B/one", 1000, 10, 4096)))
	newF := marshal(t, benchWith(other, entry("B/one", 2000, 10, 4096)))
	reg, warn := diffBench("a", oldF, "b", newF)
	if reg != 0 {
		t.Fatalf("regressions = %d, want 0 across hosts", reg)
	}
	if warn == 0 {
		t.Fatalf("warnings = 0, want >0 across hosts")
	}
	if !strings.Contains(sb.String(), "host mismatch") {
		t.Fatalf("output missing host-mismatch warning:\n%s", sb.String())
	}
}

func TestDiffBenchMissingAndNew(t *testing.T) {
	sb := captureOutput(t)
	h := perfmon.Host()
	oldF := marshal(t, benchWith(h, entry("B/gone", 1000, 10, 4096)))
	newF := marshal(t, benchWith(h, entry("B/fresh", 1000, 10, 4096)))
	reg, warn := diffBench("a", oldF, "b", newF)
	if reg != 0 || warn != 1 {
		t.Fatalf("regressions=%d warnings=%d, want 0/1", reg, warn)
	}
	if !strings.Contains(sb.String(), "missing from") || !strings.Contains(sb.String(), "new in") {
		t.Fatalf("output missing add/remove lines:\n%s", sb.String())
	}
}

func perfReport(digest string, workers int, mode string, cps float64) []byte {
	r := perfmon.Report{
		Schema:       perfmon.ReportSchema,
		Label:        "SCORPIO/test",
		ConfigDigest: digest,
		Host:         perfmon.Host(),
		Workers:      workers,
		Mode:         mode,
		CyclesPerSec: cps,
	}
	raw, _ := json.Marshal(&r)
	return raw
}

func TestDiffReportsRegression(t *testing.T) {
	discardOutput(t)
	reg, _ := diffReports(perfReport("d1", 1, "serial", 30000), perfReport("d1", 1, "serial", 30000), 0.10)
	if reg != 0 {
		t.Fatalf("self-diff regressions = %d, want 0", reg)
	}
	reg, _ = diffReports(perfReport("d1", 1, "serial", 30000), perfReport("d1", 1, "serial", 20000), 0.10)
	if reg != 1 {
		t.Fatalf("regressions = %d, want 1 (throughput -33%%)", reg)
	}
}

func TestDiffReportsDigestMismatchInformational(t *testing.T) {
	sb := captureOutput(t)
	reg, warn := diffReports(perfReport("d1", 1, "serial", 30000), perfReport("d2", 1, "serial", 20000), 0.10)
	if reg != 0 {
		t.Fatalf("regressions = %d, want 0 across digests", reg)
	}
	if warn == 0 {
		t.Fatalf("warnings = 0, want >0 across digests")
	}
	if !strings.Contains(sb.String(), "config digests differ") {
		t.Fatalf("output missing digest warning:\n%s", sb.String())
	}
}

func TestDiffReportsWorkerMismatchInformational(t *testing.T) {
	sb := captureOutput(t)
	reg, _ := diffReports(perfReport("d1", 1, "serial", 30000), perfReport("d1", 4, "parallel", 20000), 0.10)
	if reg != 0 {
		t.Fatalf("regressions = %d, want 0 for a scaling A/B", reg)
	}
	if !strings.Contains(sb.String(), "execution differs") {
		t.Fatalf("output missing execution-differs note:\n%s", sb.String())
	}
}
