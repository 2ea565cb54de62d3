package traffic

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"scorpio/internal/noc"
	"scorpio/internal/sim"
)

// TestTrafficIdleSkipEquivalence pins the open-loop harness's A/B contract:
// parking idle nodes and routers (and fast-forwarding quiescent spans) must
// not change a single measured number at any injection rate, from near-idle
// to saturation.
func TestTrafficIdleSkipEquivalence(t *testing.T) {
	for _, pattern := range []Pattern{UniformRandom, Broadcast} {
		for _, rate := range []float64{0.01, 0.05, 0.30} {
			cfg := Config{
				Net:           noc.DefaultConfig(), // 6×6
				Pattern:       pattern,
				InjectionRate: rate,
				Flits:         1,
				Cycles:        8000,
				Seed:          11,
			}
			ref := mustRun(t, withSkip(cfg, true))
			got := mustRun(t, withSkip(cfg, false))
			if ref != got {
				t.Errorf("%v rate=%.2f diverged:\nskip-off: %+v\nskip-on:  %+v", pattern, rate, ref, got)
			}
			if ref.Delivered == 0 {
				t.Errorf("%v rate=%.2f delivered nothing", pattern, rate)
			}
		}
	}
}

func withSkip(cfg Config, disable bool) Config {
	cfg.DisableIdleSkip = disable
	return cfg
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// BenchmarkKernelThroughputIdle is the activity engine's figure of merit:
// kernel stepping speed over a mesh-size × injection-rate grid, with the
// engine on and off. The interesting corners are near-zero load — where
// parked units and fast-forward should buy a large cycles/s multiple — and
// saturation, where the engine must cost nearly nothing because nothing is
// ever idle. cycles/s is the honest metric (ns/op is per simulated cycle).
func BenchmarkKernelThroughputIdle(b *testing.B) {
	for _, m := range []struct{ w, h int }{{6, 6}, {10, 10}} {
		for _, rate := range []float64{0.30, 0.05, 0.01} {
			for _, skip := range []bool{true, false} {
				name := fmt.Sprintf("mesh=%dx%d/rate=%.2f/skip=%v", m.w, m.h, rate, skip)
				b.Run(name, func(b *testing.B) {
					k, _ := warmMeshSized(b, 1, m.w, m.h, rate, skip)
					b.ResetTimer()
					k.Run(uint64(b.N))
					b.StopTimer()
					if secs := b.Elapsed().Seconds(); secs > 0 {
						b.ReportMetric(float64(b.N)/secs, "cycles/s")
					}
				})
			}
		}
	}
}

// TestIdleSkipSpeedupGuard is the benchsmoke gate's tripwire for the
// activity engine, mirroring TestParallelSpeedupGuard's pattern: it only
// runs when the Makefile sets SCORPIO_IDLESKIP_GUARD=1, because a timing
// measurement inside the ordinary suite would be noise. Two bounds, both
// from the engine's design goals: at least 2x cycles/s on a near-idle 6x6
// mesh (0.01 flits/node/cycle), and at most 5% overhead at saturation,
// where no unit ever parks and the engine reduces to boundary scans and
// demote polls.
//
// One benchmark pair per bound measured the host, not the engine: shared
// hosts drift by more than 5% between two runs. So each bound steps a warm
// skip-on and a warm skip-off mesh in back-to-back windows, alternating
// which goes first, and takes the median of the per-pair on/off time
// ratios (the estimator of TestTelemetryOverheadGuard): drift hits both
// halves of a pair, alternation cancels any second-slot bias, and the
// median sheds the pairs a descheduling spike lands in. Windows are short
// so that drift within a pair stays small: on a shared 2-vCPU host, 321
// pairs of 250 cycles read 1.01-1.04 at saturation, and 1.06-1.08 with a
// busy loop worth 5% of a saturated cycle in the demote pass, where 21
// pairs of 4,000 cycles read 0.98-1.13 either way.
func TestIdleSkipSpeedupGuard(t *testing.T) {
	if os.Getenv("SCORPIO_IDLESKIP_GUARD") == "" {
		t.Skip("idle-skip guard runs from `make benchsmoke` (SCORPIO_IDLESKIP_GUARD=1)")
	}
	const pairs, cycles = 321, 250
	window := func(k *sim.Kernel) float64 {
		start := time.Now()
		k.Run(cycles)
		return float64(time.Since(start))
	}
	medianRatio := func(rate float64) float64 {
		on, _ := warmMeshSized(t, 1, 6, 6, rate, true)
		off, _ := warmMeshSized(t, 1, 6, 6, rate, false)
		ratios := make([]float64, pairs)
		for i := range ratios {
			var a, b float64
			if i%2 == 0 {
				a = window(on)
				b = window(off)
			} else {
				b = window(off)
				a = window(on)
			}
			ratios[i] = a / b
		}
		sort.Float64s(ratios)
		return ratios[pairs/2]
	}
	idle := medianRatio(0.01)
	if idle > 0.5 {
		t.Errorf("near-idle speedup %.2fx (median on/off time ratio %.3f): the activity engine stopped paying (want >= 2x)",
			1/idle, idle)
	}
	sat := medianRatio(0.30)
	if sat > 1.05 {
		t.Errorf("saturation overhead %+.1f%% (median on/off time ratio %.3f): the engine must cost <= 5%% when nothing idles",
			100*(sat-1), sat)
	}
	t.Logf("near-idle %.2fx speedup (median on/off %.3f); saturation %+.1f%% (median on/off %.3f); %d pairs of %d cycles",
		1/idle, idle, 100*(sat-1), sat, pairs, cycles)
}
