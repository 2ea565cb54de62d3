package system

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"scorpio/internal/obs"
	"scorpio/internal/obs/perfmon"
)

// TestMetricsGoldenHeader pins the sampler's column contract: downstream
// tooling parses these names, so adding, renaming or reordering a column is
// an intentional schema change that must update this test (and any scripts
// reading the CSV).
func TestMetricsGoldenHeader(t *testing.T) {
	const golden = "cycle,injected,ejected,buffered_flits,flits_routed,bypasses,alloc_stalls,notif_windows,outstanding,active_units,parks,wakes"
	if got := "cycle," + strings.Join(metricsColumns, ","); got != golden {
		t.Fatalf("metrics header changed:\n got %s\nwant %s", got, golden)
	}
}

// TestMetricsCarryActivityColumns checks the sampler's new engine columns on
// a real run: active_units is a live gauge and the park/wake deltas must sum
// to something nonzero on a workload that idles and resumes units.
func TestMetricsCarryActivityColumns(t *testing.T) {
	opt := smallOptions(t, "barnes", 16)
	opt.Obs = &obs.Options{MetricsInterval: 200}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Obs.Metrics
	if m == nil || m.Samples() == 0 {
		t.Fatal("no metrics collected")
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	cols := strings.Split(lines[0], ",")
	idx := map[string]int{}
	for i, c := range cols {
		idx[c] = i
	}
	var parks, wakes float64
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		parks += atofTest(t, f[idx["parks"]])
		wakes += atofTest(t, f[idx["wakes"]])
		if au := atofTest(t, f[idx["active_units"]]); au < 0 {
			t.Fatalf("negative active_units gauge: %s", line)
		}
	}
	if parks == 0 || wakes == 0 {
		t.Fatalf("activity columns flat across the run (parks %v, wakes %v); sampler is not wired to the engine census", parks, wakes)
	}
}

func atofTest(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

// TestWatchdogStallReportCarriesActivity extends the stall-snapshot contract:
// the watchdog error must now also carry the activity engine's state (parked
// units, the next due wake) so a lost-wake hang names its suspects.
func TestWatchdogStallReportCarriesActivity(t *testing.T) {
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
	for _, want := range []string{"activity:", "units active", "next due wake", "wakes by edge:"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("stall error missing engine state (%q):\n%v", want, err)
		}
	}
}

// TestRunProducesPerfReport drives the full wiring: Options.Obs.Perf attaches
// the monitor, Run finishes, and the result carries a populated RunReport
// with the digest passed through.
func TestRunProducesPerfReport(t *testing.T) {
	opt := smallOptions(t, "barnes", 16)
	opt.Obs = &obs.Options{Perf: true, ConfigDigest: "0ddba11"}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Obs.PerfReport
	if r == nil {
		t.Fatal("run with Perf on produced no report")
	}
	if r.Label != "SCORPIO/barnes" || r.ConfigDigest != "0ddba11" {
		t.Fatalf("report envelope: label %q digest %q", r.Label, r.ConfigDigest)
	}
	if r.Cycles == 0 || r.WallNs <= 0 || r.CyclesPerSec <= 0 {
		t.Fatalf("report missing run totals: %+v", r)
	}
	if len(r.PerWorker) == 0 || r.PerWorker[0].EvalNs == 0 {
		t.Fatalf("report missing per-worker time: %+v", r.PerWorker)
	}
	if r.Activity.StepsExecuted == 0 {
		t.Fatalf("report missing activity census: %+v", r.Activity)
	}
}

// TestPerfReportAccounting is the acceptance bound on the monitor itself: at
// stride 1 each participant's evaluate+commit+barrier+other time must sum to
// the measured wall clock of the run window, within tolerance, at workers 1,
// 2 and 4. Wall clock and the monitor read the same runtime clock, so the
// residue is only loop overhead outside Step plus scheduling jitter; each
// worker count gets a few attempts to ride out a noisy CI neighbour.
func TestPerfReportAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive accounting bound; skipped under -short")
	}
	for _, workers := range []int{1, 2, 4} {
		if workers > 1 {
			forceProcs(t, workers)
		}
		ok := false
		var last string
		for attempt := 0; attempt < 3 && !ok; attempt++ {
			s := warmScorpioMesh(t, 6, 6, workers)
			m := perfmon.New()
			m.Stride = 1 // exact accounting: every step timed
			s.Kernel.SetPerfMon(m)
			wall0 := time.Now()
			s.Kernel.Run(2000)
			wall := time.Since(wall0).Nanoseconds()
			r := s.Kernel.PerfReport("accounting", "", wall)
			s.Kernel.StopWorkers()
			if len(r.PerWorker) == 0 {
				t.Fatalf("workers=%d: no per-worker rows", workers)
			}
			ok = true
			for _, w := range r.PerWorker {
				total := w.EvalNs + w.CommitNs + w.SpinNs + w.ParkNs + w.OtherNs
				err := math.Abs(float64(total-wall)) / float64(wall)
				last = fmt.Sprintf("%.1f%%", 100*err)
				t.Logf("workers=%d attempt %d: worker %d accounted %dns of %dns wall (%s off)",
					workers, attempt, w.Index, total, wall, last)
				if err > 0.05 {
					ok = false
				}
			}
		}
		if !ok {
			t.Errorf("workers=%d: per-worker accounting stayed more than 5%% off wall clock (last %s)", workers, last)
		}
	}
}

// TestPerfmonOverheadGuard holds the monitor to its ≤2% cost budget at the
// default sparse stride. A wall-clock comparison inside the ordinary suite
// would be noise, so it only runs from `make perfsmoke`
// (SCORPIO_PERF_GUARD=1).
//
// It uses TestIdleSkipSpeedupGuard's estimator: a warm bare machine and a
// warm monitored one step back-to-back 250-cycle windows, alternating which
// goes first, and the guard reads the median of the 321 per-pair time
// ratios. Drift hits both halves of a pair, alternation cancels any
// second-slot bias, and the median sheds the pairs a descheduling spike
// lands in. On a shared 2-vCPU host, 20 runs read 0.997-1.011 against a
// limit near 1.025, and 10 runs with a 1 µs busy wait in each monitored
// step (2-3% of a 6×6 cycle) read 1.022-1.037, 9 of them failing.
func TestPerfmonOverheadGuard(t *testing.T) {
	if os.Getenv("SCORPIO_PERF_GUARD") == "" {
		t.Skip("overhead guard runs from `make perfsmoke` (SCORPIO_PERF_GUARD=1)")
	}
	const pairs, cycles = 321, 250
	bare := warmScorpioMesh(t, 6, 6, 1)
	defer bare.Kernel.StopWorkers()
	mon := warmScorpioMesh(t, 6, 6, 1)
	defer mon.Kernel.StopWorkers()
	mon.Kernel.SetPerfMon(perfmon.New()) // default stride
	mon.Kernel.Run(100)                  // settle the rebuild
	window := func(s *Scorpio) float64 {
		start := time.Now()
		s.Kernel.Run(cycles)
		return float64(time.Since(start))
	}
	ratios := make([]float64, pairs)
	bareNs := make([]float64, pairs)
	for i := range ratios {
		var b, m float64
		if i%2 == 0 {
			b = window(bare)
			m = window(mon)
		} else {
			m = window(mon)
			b = window(bare)
		}
		ratios[i], bareNs[i] = m/b, b/cycles
	}
	sort.Float64s(ratios)
	sort.Float64s(bareNs)
	ratio, base := ratios[pairs/2], bareNs[pairs/2]
	// 2% relative budget plus a small absolute allowance (200 ns per cycle)
	// for clock granularity on very fast steps.
	limit := 1.02 + 200/base
	t.Logf("median monitored/bare time ratio %.4f over %d pairs of %d cycles (%.0fns/cycle bare); limit %.4f",
		ratio, pairs, cycles, base, limit)
	if ratio > limit {
		t.Fatalf("perfmon costs %+.2f%% over a %.0fns/cycle baseline (median ratio %.4f > %.4f); the sampled-stride discipline broke",
			100*(ratio-1), base, ratio, limit)
	}
}
