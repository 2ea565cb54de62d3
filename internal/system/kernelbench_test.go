package system

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"scorpio/internal/trace"
)

// warmScorpioMesh builds a seeded SCORPIO machine on a w×h mesh whose
// injectors never drain (WorkPerCore is effectively infinite), applies the
// worker count, and steps past ring/pool warmup so a measured window covers
// the steady-state hot path only.
func warmScorpioMesh(tb testing.TB, w, h, workers int) *Scorpio {
	tb.Helper()
	prof, err := trace.ByName("fft")
	if err != nil {
		tb.Fatal(err)
	}
	opt := DefaultOptions(prof)
	opt.Core = opt.Core.WithMeshSize(w, h)
	opt.WorkPerCore = 1 << 40 // never drains: the machine stays loaded
	opt.Workers = workers
	s, err := NewScorpio(opt)
	if err != nil {
		tb.Fatal(err)
	}
	s.Kernel.Run(600) // free lists, VC rings and the phase pool settle
	return s
}

// BenchmarkKernelThroughputMesh measures kernel stepping speed over the real
// SCORPIO machine — cores, L2s, notification tree and the ordered mesh — as
// opposed to BenchmarkKernelThroughput's synthetic component graph. One
// subbenchmark per (mesh size, worker count) so the report carries the full
// scaling curve; cycles/s is the honest figure of merit (ns/op is per
// simulated cycle).
func BenchmarkKernelThroughputMesh(b *testing.B) {
	meshes := []struct{ w, h int }{{6, 6}, {10, 10}, {16, 16}}
	for _, m := range meshes {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("mesh=%dx%d/workers=%d", m.w, m.h, workers), func(b *testing.B) {
				s := warmScorpioMesh(b, m.w, m.h, workers)
				defer s.Kernel.StopWorkers()
				b.ResetTimer()
				s.Kernel.Run(uint64(b.N))
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "cycles/s")
				}
			})
		}
	}
}

// TestParallelSpeedupGuard is the benchsmoke gate's regression tripwire for
// the parallel kernel, at both ends of its range. On a warm 6×6 machine,
// workers=NumCPU must not step slower than the serial path beyond a
// CI-jitter allowance. On the mesh256-fft benchmark window (16×16), two
// workers must actually win: the median parallel/serial wall-time ratio of
// three interleaved pairs must be below 1. It only runs when the Makefile
// sets SCORPIO_SPEEDUP_GUARD=1 (a measurement inside the ordinary test suite
// would be pure noise), and it skips on a host with GOMAXPROCS < 2, where
// the kernel steps workers > 1 serially and there is no parallelism to
// guard.
func TestParallelSpeedupGuard(t *testing.T) {
	if os.Getenv("SCORPIO_SPEEDUP_GUARD") == "" {
		t.Skip("speedup guard runs from `make benchsmoke` (SCORPIO_SPEEDUP_GUARD=1)")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("GOMAXPROCS < 2: the kernel steps workers > 1 serially, no parallel speedup to guard")
	}
	measure := func(workers int) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			s := warmScorpioMesh(b, 6, 6, workers)
			defer s.Kernel.StopWorkers()
			b.ResetTimer()
			s.Kernel.Run(uint64(b.N))
		})
		return float64(r.NsPerOp())
	}
	serial := measure(1)
	par := measure(runtime.NumCPU())
	const headroom = 1.25 // CI jitter allowance
	if par > serial*headroom {
		t.Fatalf("workers=%d stepped at %.0f ns/cycle vs %.0f serial (more than %.2fx): the parallel kernel stopped paying",
			runtime.NumCPU(), par, serial, headroom)
	}
	t.Logf("serial %.0f ns/cycle, workers=%d %.0f ns/cycle", serial, runtime.NumCPU(), par)

	// The 16×16 window: built cold like the benchmark's mesh256-fft point
	// (fft, five warm-up accesses per core, cores that never finish, the
	// facade's 8 KiB directory cache), then 600 cycles timed.
	window := func(workers int) float64 {
		prof, err := trace.ByName("fft")
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions(prof)
		opt.Core = opt.Core.WithMeshSize(16, 16)
		opt.WorkPerCore, opt.WarmupPerCore = 0, 5
		opt.Mem.TotalDirCacheBytes = 8 * 1024
		opt.Workers = workers
		s, err := NewScorpio(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Kernel.StopWorkers()
		start := time.Now()
		s.Kernel.Run(600)
		return time.Since(start).Seconds()
	}
	const pairs = 3
	ratios := make([]float64, pairs)
	for i := range ratios {
		var ser, par float64
		if i%2 == 0 {
			ser, par = window(1), window(2)
		} else {
			par, ser = window(2), window(1)
		}
		ratios[i] = par / ser
		t.Logf("16x16 pair %d: serial %.3f s, workers=2 %.3f s (ratio %.3f)", i, ser, par, ratios[i])
	}
	sort.Float64s(ratios)
	if med := ratios[pairs/2]; med >= 1 {
		t.Fatalf("16x16: median workers=2/serial wall-time ratio %.3f over %d pairs %v, want < 1: the parallel kernel does not win where it should",
			med, pairs, ratios)
	}
}
