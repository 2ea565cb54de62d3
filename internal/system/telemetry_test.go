package system

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"scorpio/internal/obs"
	"scorpio/internal/trace"
)

// TestTelemetryEndToEnd drives the whole live-export path against a real
// SCORPIO machine: the exporter binds an ephemeral port at construction and
// answers before the first cycle, a dashboard-style client polls /metrics
// until the run has published a sample tick, and /snapshot and /healthz
// answer while the run steps. Closing releases the port.
func TestTelemetryEndToEnd(t *testing.T) {
	opt := smallOptions(t, "barnes", 16)
	opt.Obs = &obs.Options{TelemetryAddr: "127.0.0.1:0", TelemetryInterval: 64}
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Obs.CloseTelemetry()
	if s.Obs == nil || s.Obs.Telemetry == nil {
		t.Fatal("telemetry options enabled nothing")
	}
	addr := s.Obs.Telemetry.Addr()
	if addr == "" {
		t.Fatal("exporter not listening after NewScorpio")
	}
	base := "http://" + addr

	// The exporter answers before the first cycle: a dashboard can attach
	// early and wait for the run.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz before run: %s", resp.Status)
	}

	runDone := make(chan error, 1)
	go func() {
		res, err := s.Run(3_000_000)
		if err == nil && res.Completed != 16*(60+120) {
			t.Errorf("completed %d accesses, want %d", res.Completed, 16*(60+120))
		}
		runDone <- err
	}()

	// Poll /metrics as scorpiotop does until the observer has published a
	// tick; the page carries the whole series table.
	var page string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		page = scrapeMetrics(t, base)
		if sampleValue(t, page, "scorpio_sample_ticks_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no sample tick published within 10s")
		}
	}
	for _, name := range []string{"scorpio_injected_total", "scorpio_active_units", "scorpio_steps_executed_total", "scorpio_lat_p50"} {
		sampleValue(t, page, name)
	}

	// /snapshot while the run may still be stepping: either the driver
	// fulfils the deep door, or the run has finished and the handler says so.
	resp, err = http.Get(base + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var snap struct {
			Network string `json:"network_snapshot"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		if err != nil {
			t.Fatalf("bad /snapshot JSON: %v", err)
		}
		if snap.Network == "" {
			t.Fatal("/snapshot carries no network snapshot")
		}
	case http.StatusServiceUnavailable:
	default:
		t.Fatalf("/snapshot: %s", resp.Status)
	}
	resp.Body.Close()

	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	// Post-run /metrics: the full exposition with final cumulative counters.
	body := scrapeMetrics(t, base)
	if !strings.HasSuffix(strings.TrimRight(body, "\n"), "# EOF") {
		t.Fatal("/metrics exposition not terminated by # EOF")
	}
	if sampleValue(t, body, "scorpio_sample_ticks_total") == 0 {
		t.Fatal("no sample ticks were published during the run")
	}
	if sampleValue(t, body, "scorpio_ejected_total") == 0 {
		t.Fatal("scorpio_ejected_total stayed 0 over a full benchmark run")
	}
	if !strings.Contains(body, "\nscorpio_router_utilization{") {
		t.Fatal("no router-utilization samples in /metrics")
	}
	if !strings.Contains(body, `scorpio_run{label="SCORPIO/barnes"}`) {
		t.Fatal("/metrics run label missing or wrong")
	}
	if !strings.Contains(body, `scorpio_worker_eval_ns_total{worker="0"}`) {
		t.Fatal("/metrics lacks the per-worker perf counters")
	}

	// The telemetry-attached monitor must not leak a PerfReport into the
	// results: only an explicit Perf request does that.
	if s.Obs.PerfReport != nil {
		t.Fatal("telemetry-only run produced a PerfReport")
	}

	// Close releases the port: connections are refused afterwards.
	s.Obs.CloseTelemetry()
	waitRefused(t, base)
}

// scrapeMetrics GETs base/metrics and returns the OpenMetrics exposition.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleValue returns the value of the unlabelled sample name in an
// exposition, failing the test when it is absent.
func sampleValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics lacks %s", name)
	return 0
}

func waitRefused(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return // refused: the port is released
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("exporter still answering after CloseTelemetry")
}

// TestTelemetryOverheadGuard holds the no-client exporter to the same ≤2%
// budget as the perf monitor: with telemetry attached (publisher sampling,
// deep-snapshot door armed, HTTP server listening) but nobody connected, a
// warm mesh must step at effectively the bare machine's speed. Wall-clock
// noise keeps it out of the ordinary suite — it runs from
// `make telemetrysmoke` (SCORPIO_TELEMETRY_GUARD=1).
func TestTelemetryOverheadGuard(t *testing.T) {
	if os.Getenv("SCORPIO_TELEMETRY_GUARD") == "" {
		t.Skip("overhead guard runs from `make telemetrysmoke` (SCORPIO_TELEMETRY_GUARD=1)")
	}
	const rounds, cycles = 12, 2000
	build := func(attach bool) *Scorpio {
		prof, err := trace.ByName("fft")
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions(prof)
		opt.Core = opt.Core.WithMeshSize(6, 6)
		opt.WorkPerCore = 1 << 40 // never drains: the machine stays loaded
		opt.Workers = 1
		if attach {
			opt.Obs = &obs.Options{TelemetryAddr: "127.0.0.1:0"} // default interval
		}
		s, err := NewScorpio(opt)
		if err != nil {
			t.Fatal(err)
		}
		s.Kernel.Run(600) // free lists, VC rings and the phase pool settle
		return s
	}
	bare := build(false)
	defer bare.Kernel.StopWorkers()
	withTel := build(true)
	defer withTel.Kernel.StopWorkers()
	defer withTel.Obs.CloseTelemetry()
	// Shared hosts drift by more than the budget over fractions of a second,
	// so a best-of on each side still compares different noise environments.
	// Instead measure in back-to-back pairs, alternating which machine goes
	// first, and take the median of the per-pair deltas: drift hits both
	// halves of a pair, alternation cancels any second-slot bias, and the
	// median sheds the outlier pairs a descheduling spike lands in. A whole
	// attempt can still be poisoned by a sustained load burst, so (like the
	// accounting test above it in perfsmoke) the guard retries a few times
	// and passes on the first clean attempt — a real regression fails all of
	// them.
	window := func(s *Scorpio) float64 {
		start := time.Now()
		s.Kernel.Run(cycles)
		return float64(time.Since(start).Nanoseconds()) / cycles
	}
	deltas := make([]float64, rounds)
	var base, delta float64
	for attempt := 1; ; attempt++ {
		base = math.MaxFloat64
		for i := range deltas {
			var b, w float64
			if i%2 == 0 {
				b = window(bare)
				w = window(withTel)
			} else {
				w = window(withTel)
				b = window(bare)
			}
			deltas[i] = w - b
			if b < base {
				base = b
			}
		}
		sort.Float64s(deltas)
		delta = (deltas[rounds/2-1] + deltas[rounds/2]) / 2
		t.Logf("attempt %d per-cycle: %.0fns bare floor, median telemetry delta %+.0fns (%.2f%%)",
			attempt, base, delta, 100*delta/base)
		// Same budget shape as the perfmon guard: 2% relative plus a small
		// absolute allowance for clock granularity on very fast steps.
		if delta <= base*0.02+200 {
			break
		}
		if attempt == 3 {
			t.Fatalf("idle telemetry costs %.0fns/cycle over a %.0fns/cycle baseline (>2%%) across %d attempts; the sampled publish discipline broke", delta, base, attempt)
		}
	}
}
