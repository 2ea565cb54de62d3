// Command benchdiff compares two performance baselines and exits nonzero on
// regression. It accepts either two benchmark files (BENCH_*.json produced
// by cmd/benchjson) or two engine RunReports (the scorpio-perf JSON written
// by -perf-report), detected from the file contents.
//
//	benchdiff BENCH_3.json BENCH_4.json          # gate: exit 1 on regression
//	benchdiff -threshold 0.05 old.json new.json  # tighter gate
//	benchdiff serial.perf.json workers4.perf.json # scaling A/B (informational)
//
// Comparison is noise-aware: for benchmark files the effective threshold per
// benchmark is the larger of -threshold and the observed sample spread
// ((max-min)/min across both files' samples), so a noisy benchmark cannot
// flunk the gate on a rerun of itself. When the two files carry differing
// host stamps (CPU count, go version, OS/arch), regressions are downgraded
// to warnings and the exit stays zero — a baseline taken on another machine
// is a trajectory marker, not a gate. RunReports are likewise compared only
// when their config digests match; differing digests (different workload or
// topology) and differing worker counts make the diff informational.
//
// Exit codes: 0 clean (or warnings only), 1 regression, 2 usage/parse error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scorpio/internal/obs/perfmon"
)

// out is where the diff lines go; tests swap it for a buffer.
var out io.Writer = os.Stdout

// benchSample mirrors cmd/benchjson's per-run sample (only the field the
// noise estimate needs).
type benchSample struct {
	NsPerOp float64 `json:"ns_per_op"`
}

// benchEntry mirrors cmd/benchjson's aggregated benchmark record.
type benchEntry struct {
	Name         string        `json:"name"`
	Samples      []benchSample `json:"samples"`
	MinNsPerOp   float64       `json:"min_ns_per_op"`
	MeanNsPerOp  float64       `json:"mean_ns_per_op"`
	MeanBytesOp  float64       `json:"mean_bytes_per_op"`
	MeanAllocsOp float64       `json:"mean_allocs_per_op"`
}

// benchFile mirrors cmd/benchjson's top-level report.
type benchFile struct {
	CPU        string            `json:"cpu"`
	Host       *perfmon.HostInfo `json:"host"`
	Benchmarks []*benchEntry     `json:"benchmarks"`
}

// probe sniffs which format a file is.
type probe struct {
	Schema     string          `json:"schema"`
	Benchmarks json.RawMessage `json:"benchmarks"`
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "relative time-regression threshold (raised per benchmark by observed sample noise)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold F] OLD.json NEW.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldRaw := mustRead(flag.Arg(0))
	newRaw := mustRead(flag.Arg(1))
	oldKind := sniff(flag.Arg(0), oldRaw)
	newKind := sniff(flag.Arg(1), newRaw)
	if oldKind != newKind {
		fatalf("cannot compare a %s file with a %s file", oldKind, newKind)
	}
	var regressions, warnings int
	switch oldKind {
	case "bench":
		regressions, warnings = diffBench(flag.Arg(0), oldRaw, flag.Arg(1), newRaw, *threshold)
	case "perf-report":
		regressions, warnings = diffReports(oldRaw, newRaw, *threshold)
	}
	switch {
	case regressions > 0:
		fmt.Fprintf(out, "\nbenchdiff: %d regression(s)\n", regressions)
		os.Exit(1)
	case warnings > 0:
		fmt.Fprintf(out, "\nbenchdiff: clean (%d warning(s))\n", warnings)
	default:
		fmt.Fprintln(out, "\nbenchdiff: clean")
	}
}

func mustRead(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	return data
}

func sniff(path string, raw []byte) string {
	var p probe
	if err := json.Unmarshal(raw, &p); err != nil {
		fatalf("%s: %v", path, err)
	}
	switch {
	case strings.HasPrefix(p.Schema, "scorpio-perf/"):
		return "perf-report"
	case p.Benchmarks != nil:
		return "bench"
	}
	fatalf("%s: neither a benchjson file nor a perf RunReport", path)
	return ""
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

// spread returns the relative sample spread (max-min)/min, the noise floor
// for one benchmark's timing comparison.
func spread(samples []benchSample) float64 {
	if len(samples) < 2 {
		return 0
	}
	lo, hi := samples[0].NsPerOp, samples[0].NsPerOp
	for _, s := range samples[1:] {
		if s.NsPerOp < lo {
			lo = s.NsPerOp
		}
		if s.NsPerOp > hi {
			hi = s.NsPerOp
		}
	}
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}

// diffBench compares two benchjson files and returns (regressions, warnings).
func diffBench(oldPath string, oldRaw []byte, newPath string, newRaw []byte, threshold float64) (int, int) {
	var oldF, newF benchFile
	if err := json.Unmarshal(oldRaw, &oldF); err != nil {
		fatalf("%s: %v", oldPath, err)
	}
	if err := json.Unmarshal(newRaw, &newF); err != nil {
		fatalf("%s: %v", newPath, err)
	}
	regressions, warnings := 0, 0
	gate := true
	if oldF.Host != nil && newF.Host != nil && !perfmon.SameHost(*oldF.Host, *newF.Host) {
		fmt.Fprintf(out, "WARNING: host mismatch (%s vs %s) — regressions reported as warnings only\n",
			hostLine(oldF.Host), hostLine(newF.Host))
		gate = false
		warnings++
	}
	newBy := map[string]*benchEntry{}
	for _, b := range newF.Benchmarks {
		newBy[b.Name] = b
	}
	seen := map[string]bool{}
	for _, ob := range oldF.Benchmarks {
		nb := newBy[ob.Name]
		if nb == nil {
			fmt.Fprintf(out, "%-56s missing from %s\n", ob.Name, newPath)
			warnings++
			continue
		}
		seen[ob.Name] = true
		eff := threshold
		if n := spread(ob.Samples); n > eff {
			eff = n
		}
		if n := spread(nb.Samples); n > eff {
			eff = n
		}
		verdict := "ok"
		bad := false
		delta := 0.0
		if ob.MinNsPerOp > 0 {
			delta = (nb.MinNsPerOp - ob.MinNsPerOp) / ob.MinNsPerOp
		}
		switch {
		case delta > eff:
			verdict, bad = "TIME REGRESSION", true
		case delta < -eff:
			verdict = "improved"
		}
		// Allocation and byte regressions get small absolute+relative slack:
		// alloc counts are near-deterministic, bytes jitter with map growth.
		if nb.MeanAllocsOp > ob.MeanAllocsOp*1.05+1 {
			verdict, bad = "ALLOC REGRESSION", true
		} else if nb.MeanBytesOp > ob.MeanBytesOp*1.10+64 {
			verdict, bad = "BYTES REGRESSION", true
		}
		if bad {
			if gate {
				regressions++
			} else {
				verdict += " (cross-host: warning)"
				warnings++
			}
		}
		fmt.Fprintf(out, "%-56s %12s -> %-12s %+6.1f%% (gate %.0f%%) %s\n",
			ob.Name, fmtNs(ob.MinNsPerOp), fmtNs(nb.MinNsPerOp), 100*delta, 100*eff, verdict)
	}
	for _, nb := range newF.Benchmarks {
		if !seen[nb.Name] {
			fmt.Fprintf(out, "%-56s new in %s (%s)\n", nb.Name, newPath, fmtNs(nb.MinNsPerOp))
		}
	}
	return regressions, warnings
}

// diffReports compares two engine RunReports on their headline throughput.
func diffReports(oldRaw, newRaw []byte, threshold float64) (int, int) {
	oldR, err := perfmon.ParseReport(oldRaw)
	if err != nil {
		fatalf("%v", err)
	}
	newR, err := perfmon.ParseReport(newRaw)
	if err != nil {
		fatalf("%v", err)
	}
	regressions, warnings := 0, 0
	gate := true
	if !perfmon.SameHost(oldR.Host, newR.Host) {
		fmt.Fprintf(out, "WARNING: host mismatch (%s vs %s) — regressions reported as warnings only\n",
			hostLine(&oldR.Host), hostLine(&newR.Host))
		gate = false
		warnings++
	}
	if oldR.ConfigDigest != "" && newR.ConfigDigest != "" && oldR.ConfigDigest != newR.ConfigDigest {
		fmt.Fprintf(out, "WARNING: config digests differ (%s vs %s) — different workloads, diff is informational\n",
			oldR.ConfigDigest, newR.ConfigDigest)
		gate = false
		warnings++
	}
	if oldR.Workers != newR.Workers || oldR.Mode != newR.Mode {
		fmt.Fprintf(out, "note: execution differs (%s x%d vs %s x%d) — scaling A/B, diff is informational\n",
			oldR.Mode, oldR.Workers, newR.Mode, newR.Workers)
		gate = false
	}
	delta := 0.0
	if oldR.CyclesPerSec > 0 {
		delta = (newR.CyclesPerSec - oldR.CyclesPerSec) / oldR.CyclesPerSec
	}
	verdict := "ok"
	if delta < -threshold {
		if gate {
			verdict = "THROUGHPUT REGRESSION"
			regressions++
		} else {
			verdict = "slower (informational)"
		}
	} else if delta > threshold {
		verdict = "improved"
	}
	fmt.Fprintf(out, "%-32s %10.0f -> %-10.0f cycles/s %+6.1f%% (gate %.0f%%) %s\n",
		oldR.Label, oldR.CyclesPerSec, newR.CyclesPerSec, 100*delta, 100*threshold, verdict)
	oa, na := oldR.Activity, newR.Activity
	fmt.Fprintf(out, "  steps %d -> %d, parks %d -> %d, wakes %d -> %d\n",
		oa.StepsExecuted, na.StepsExecuted, oa.Parks, na.Parks,
		sumWakes(oa.Wakes), sumWakes(na.Wakes))
	fmt.Fprintf(out, "  rebalances %d -> %d, migrations %d -> %d\n",
		oldR.Rebalances, newR.Rebalances, oldR.Migrations, newR.Migrations)
	return regressions, warnings
}

// sumWakes totals the per-edge wake map of a parsed report (the typed
// counter array does not round-trip through JSON; the map does).
func sumWakes(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

func hostLine(h *perfmon.HostInfo) string {
	return fmt.Sprintf("%dcpu/%s/%s-%s", h.NumCPU, h.GoVersion, h.OS, h.Arch)
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
