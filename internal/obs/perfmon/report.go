package perfmon

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// ReportSchema identifies a RunReport JSON document (benchdiff keys its
// format detection on the prefix, so bump only the version suffix).
const ReportSchema = "scorpio-perf/v1"

// HostInfo stamps a report with the machine it ran on, so trajectories of
// reports (or benchmark baselines) taken on different hosts are never
// mistaken for same-host regressions.
type HostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Commit is the VCS revision baked into the binary ("unknown" when the
	// build carried no VCS stamp, e.g. `go test` binaries).
	Commit string `json:"commit"`
}

// Host reads the current process's host metadata.
func Host() HostInfo {
	h := HostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// SameHost reports whether two stamps plausibly describe the same machine
// and toolchain. Unknown fields (zero values from pre-metadata files) never
// count as a difference — absence of evidence is not a host change.
func SameHost(a, b HostInfo) bool {
	differs := func(x, y string) bool { return x != "" && y != "" && x != y }
	if a.NumCPU != 0 && b.NumCPU != 0 && a.NumCPU != b.NumCPU {
		return false
	}
	return !differs(a.GoVersion, b.GoVersion) && !differs(a.OS, b.OS) && !differs(a.Arch, b.Arch)
}

// WorkerReport is one participant's time decomposition, extrapolated from
// the sampled cycles to the whole run.
type WorkerReport struct {
	Index         int    `json:"index"`
	SampledCycles uint64 `json:"sampled_cycles"`
	EvalNs        int64  `json:"eval_ns"`
	CommitNs      int64  `json:"commit_ns"`
	SpinNs        int64  `json:"spin_ns"`
	ParkNs        int64  `json:"park_ns"`
	// OtherNs is the driver-only remainder of the step span — boundary
	// reconcile, demote passes, dispatch rebuilds, observer — zero for
	// workers.
	OtherNs int64 `json:"other_ns,omitempty"`
	// BusyFrac is (eval+commit)/(eval+commit+spin+park+other).
	BusyFrac       float64 `json:"busy_frac"`
	EpochsLed      uint64  `json:"epochs_led"`
	EpochsFollowed uint64  `json:"epochs_followed"`
}

// total sums every accounted bucket.
func (w WorkerReport) total() int64 {
	return w.EvalNs + w.CommitNs + w.SpinNs + w.ParkNs + w.OtherNs
}

// ActivityReport is the activity census plus the named per-edge wake map.
type ActivityReport struct {
	ActivityCounters
	Wakes map[string]uint64 `json:"wakes"`
}

// Report is one run's structured self-observability record — the RunReport.
type Report struct {
	Schema string `json:"schema"`
	// Label names the run (protocol/benchmark).
	Label string `json:"label,omitempty"`
	// ConfigDigest fingerprints the simulation-relevant configuration so
	// reports of different machines/workloads are never diffed silently.
	ConfigDigest string   `json:"config_digest,omitempty"`
	Host         HostInfo `json:"host"`
	// Workers is the configured worker count; Mode how the kernel actually
	// executed ("serial" or "parallel").
	Workers int    `json:"workers"`
	Mode    string `json:"mode"`
	Cycles  uint64 `json:"cycles"`
	WallNs  int64  `json:"wall_ns"`
	// CyclesPerSec is simulated cycles per wall second — the engine's
	// headline figure of merit.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	SampleStride uint64  `json:"sample_stride"`

	Activity   ActivityReport   `json:"activity"`
	Rebalances uint64           `json:"rebalances"`
	Migrations uint64           `json:"migrations"`
	Rebalance  []RebalanceEvent `json:"rebalance_events,omitempty"`
	PerWorker  []WorkerReport   `json:"per_worker"`
}

// RunInfo carries everything a report needs beyond the monitor's own
// counters; the kernel assembles it (sim.Kernel.PerfReport).
type RunInfo struct {
	Label        string
	ConfigDigest string
	Workers      int
	Mode         string
	Cycles       uint64
	WallNs       int64
	Activity     ActivityCounters
	// MonitoredSteps is the number of steps executed while the monitor was
	// attached — the extrapolation base for the sampled per-worker sums. The
	// census's StepsExecuted spans the kernel's whole lifetime, which
	// overcounts when the monitor is attached to an already-warm kernel.
	// 0 means the monitor saw every step.
	MonitoredSteps uint64
	Rebalances     uint64
	Migrations     uint64
}

// Report drains the monitor into a RunReport. Sampled per-worker sums are
// extrapolated to run totals by each worker's sampled fraction of the steps
// actually executed.
func (m *Mon) Report(info RunInfo) *Report {
	r := &Report{
		Schema:       ReportSchema,
		Label:        info.Label,
		ConfigDigest: info.ConfigDigest,
		Host:         Host(),
		Workers:      info.Workers,
		Mode:         info.Mode,
		Cycles:       info.Cycles,
		WallNs:       info.WallNs,
		SampleStride: m.EffectiveStride(),
		Activity: ActivityReport{
			ActivityCounters: info.Activity,
			Wakes:            info.Activity.WakesByEdge(),
		},
		Rebalances: info.Rebalances,
		Migrations: info.Migrations,
		Rebalance:  m.rebalanceEvents(),
	}
	if info.WallNs > 0 {
		r.CyclesPerSec = float64(info.Cycles) / (float64(info.WallNs) / 1e9)
	}
	steps := info.MonitoredSteps
	if steps == 0 {
		steps = info.Activity.StepsExecuted
	}
	for i, w := range m.workers {
		sampled := w.Sampled.Load()
		if sampled == 0 {
			continue
		}
		scale := 1.0
		if steps > sampled {
			scale = float64(steps) / float64(sampled)
		}
		ext := func(v int64) int64 { return int64(float64(v) * scale) }
		wr := WorkerReport{
			Index:          i,
			SampledCycles:  sampled,
			EvalNs:         ext(w.EvalNs.Load()),
			CommitNs:       ext(w.CommitNs.Load()),
			SpinNs:         ext(w.SpinNs.Load()),
			ParkNs:         ext(w.ParkNs.Load()),
			EpochsLed:      w.Led.Load(),
			EpochsFollowed: w.Followed.Load(),
		}
		if step := w.StepNs.Load(); step > 0 {
			if other := step - w.EvalNs.Load() - w.CommitNs.Load() - w.SpinNs.Load() - w.ParkNs.Load(); other > 0 {
				wr.OtherNs = ext(other)
			}
		}
		if t := wr.total(); t > 0 {
			wr.BusyFrac = float64(wr.EvalNs+wr.CommitNs) / float64(t)
		}
		r.PerWorker = append(r.PerWorker, wr)
	}
	return r
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseReport decodes a RunReport and verifies the schema stamp.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfmon: parsing run report: %w", err)
	}
	if !strings.HasPrefix(r.Schema, "scorpio-perf/") {
		return nil, fmt.Errorf("perfmon: not a run report (schema %q)", r.Schema)
	}
	return &r, nil
}

// ms renders nanoseconds as milliseconds for the table.
func ms(ns int64) string { return fmt.Sprintf("%.1fms", float64(ns)/1e6) }

// Table renders the report as a human-readable summary.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf report        %s (%s, workers %d)\n", r.Label, r.Mode, r.Workers)
	fmt.Fprintf(&b, "  host             %d CPUs, GOMAXPROCS %d, %s %s/%s, commit %s\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.OS, r.Host.Arch, shortCommit(r.Host.Commit))
	fmt.Fprintf(&b, "  throughput       %d cycles in %s = %.0f cycles/s (stride %d)\n",
		r.Cycles, ms(r.WallNs), r.CyclesPerSec, r.SampleStride)
	a := r.Activity
	fmt.Fprintf(&b, "  activity         %d steps executed, %d parks, %d activations, %d demote passes\n",
		a.StepsExecuted, a.Parks, a.Activations, a.DemotePasses)
	edges := make([]string, 0, len(a.Wakes))
	for e, n := range a.Wakes {
		if n > 0 {
			edges = append(edges, fmt.Sprintf("%s %d", e, n))
		}
	}
	sort.Strings(edges)
	if len(edges) > 0 {
		fmt.Fprintf(&b, "  wakes            %s\n", strings.Join(edges, ", "))
	}
	if r.Rebalances > 0 || r.Workers > 1 {
		fmt.Fprintf(&b, "  balance          %d rebalances, %d unit migrations\n", r.Rebalances, r.Migrations)
		for _, ev := range r.Rebalance {
			fmt.Fprintf(&b, "                   cycle %d: %d migrated, imbalance %.2f -> %.2f\n",
				ev.Cycle, ev.Migrations, ev.ImbalanceBefore, ev.ImbalanceAfter)
		}
	}
	if len(r.PerWorker) > 0 {
		fmt.Fprintf(&b, "  %-8s %10s %10s %10s %10s %10s %6s %12s\n",
			"worker", "eval", "commit", "spin", "park", "other", "busy", "led/followed")
		for _, w := range r.PerWorker {
			fmt.Fprintf(&b, "  %-8d %10s %10s %10s %10s %10s %5.0f%% %6d/%d\n",
				w.Index, ms(w.EvalNs), ms(w.CommitNs), ms(w.SpinNs), ms(w.ParkNs), ms(w.OtherNs),
				100*w.BusyFrac, w.EpochsLed, w.EpochsFollowed)
		}
	}
	return b.String()
}

// shortCommit abbreviates a VCS revision for the table.
func shortCommit(c string) string {
	if len(c) > 12 {
		return c[:12]
	}
	return c
}
