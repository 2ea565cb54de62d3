package scorpio

import (
	"fmt"
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/system"
	"scorpio/internal/trace"
	"scorpio/internal/traffic"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation at a reduced-but-structurally-complete scale (QuickScale with a
// benchmark subset), and print the headline numbers the paper reports so
// `go test -bench=.` doubles as a miniature reproduction run. EXPERIMENTS.md
// records the FullScale results produced by cmd/experiments.

// benchScale keeps each figure's sweep structure while holding bench
// iterations short.
func benchScale(benchmarks ...string) Scale {
	s := QuickScale
	s.Work, s.Warmup = 100, 150
	s.Benchmarks = benchmarks
	return s
}

func BenchmarkTable1ChipConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Table2()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig6aNormalizedRuntime(b *testing.B) {
	s := benchScale("barnes", "lu")
	for i := 0; i < b.N; i++ {
		fig, err := Figure6a(s, 36)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("SCORPIO-D/LPD-D = %.3f (paper 0.759), SCORPIO-D/HT-D = %.3f (paper 0.871)",
				fig.MeanRatio("SCORPIO-D", "LPD-D"), fig.MeanRatio("SCORPIO-D", "HT-D"))
		}
	}
}

func BenchmarkFig6aNormalizedRuntime64(b *testing.B) {
	s := benchScale("barnes")
	for i := 0; i < b.N; i++ {
		fig, err := Figure6a(s, 64)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("64-core SCORPIO-D/LPD-D = %.3f", fig.MeanRatio("SCORPIO-D", "LPD-D"))
		}
	}
}

func BenchmarkFig6bLatencyBreakdownCache(b *testing.B) {
	s := benchScale("barnes", "lu")
	for i := 0; i < b.N; i++ {
		fig, err := Figure6b(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range fig.Rows {
				b.Logf("%-22s total %.1f cycles", r.Label, r.Values[len(r.Values)-1])
			}
		}
	}
}

func BenchmarkFig6cLatencyBreakdownDir(b *testing.B) {
	s := benchScale("barnes", "lu")
	for i := 0; i < b.N; i++ {
		fig, err := Figure6c(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range fig.Rows {
				b.Logf("%-22s total %.1f cycles", r.Label, r.Values[len(r.Values)-1])
			}
		}
	}
}

func BenchmarkFig7TokenBINSO(b *testing.B) {
	s := benchScale("blackscholes", "vips")
	for i := 0; i < b.N; i++ {
		fig, err := Figure7(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("TokenB %.3f, INSO-20 %.3f, INSO-40 %.3f, INSO-80 %.3f (vs SCORPIO=1)",
				fig.Mean("TokenB"), fig.Mean("INSO-20"), fig.Mean("INSO-40"), fig.Mean("INSO-80"))
		}
	}
}

func BenchmarkFig8aChannelWidth(b *testing.B) {
	s := benchScale("lu", "radix")
	for i := 0; i < b.N; i++ {
		fig, err := Figure8a(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("CW=8B %.3f, CW=16B 1.000, CW=32B %.3f", fig.Mean("CW=8B"), fig.Mean("CW=32B"))
		}
	}
}

func BenchmarkFig8bGOREQVCs(b *testing.B) {
	s := benchScale("lu", "radix")
	for i := 0; i < b.N; i++ {
		fig, err := Figure8b(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("VCs=2 %.3f, VCs=4 1.000, VCs=6 %.3f", fig.Mean("VCs=2"), fig.Mean("VCs=6"))
		}
	}
}

func BenchmarkFig8cUORESPVCs(b *testing.B) {
	s := benchScale("lu", "radix")
	for i := 0; i < b.N; i++ {
		fig, err := Figure8c(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("CW=8B/VCs=2 %.3f vs CW=16B/VCs=2 baseline", fig.Mean("CW=8B/VCs=2"))
		}
	}
}

func BenchmarkFig8dNotificationBits(b *testing.B) {
	s := benchScale("lu")
	for i := 0; i < b.N; i++ {
		fig, err := Figure8d(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("BW=1b 1.000, BW=2b %.3f, BW=3b %.3f", fig.Mean("BW=2b"), fig.Mean("BW=3b"))
		}
	}
}

func BenchmarkFig9TileOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, a := Figure9()
		if len(p.Rows) == 0 || len(a.Rows) == 0 {
			b.Fatal("empty breakdowns")
		}
	}
}

func BenchmarkFig10Pipelining(b *testing.B) {
	s := benchScale("barnes")
	s.Work, s.Warmup = 60, 100
	for i := 0; i < b.N; i++ {
		fig, err := Figure10(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", fig.String())
		}
	}
}

// --- Ablations beyond the paper (DESIGN.md §5) ---

// BenchmarkAblationOrderingCost compares SCORPIO against the TokenB oracle
// (the same snoopy protocol with free ordering): the difference is the whole
// cost of distributed in-network ordering.
func BenchmarkAblationOrderingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rts [2]float64
		for j, p := range []Protocol{SCORPIO, TokenB} {
			res, err := Run(Config{Protocol: p, Benchmark: "lu", Width: 4, Height: 4, WorkPerCore: 100, WarmupPerCore: 150})
			if err != nil {
				b.Fatal(err)
			}
			rts[j] = res.Runtime()
		}
		if i == 0 {
			b.Logf("ordering costs %.1f%% runtime vs an ordering oracle", 100*(rts[0]/rts[1]-1))
		}
	}
}

// BenchmarkAblationBypass quantifies lookahead bypassing (Section 3.2).
func BenchmarkAblationBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var lat [2]float64
		for j, bypass := range []bool{true, false} {
			bp := bypass
			res, err := Run(Config{Benchmark: "barnes", WorkPerCore: 100, WarmupPerCore: 150, Bypass: &bp})
			if err != nil {
				b.Fatal(err)
			}
			lat[j] = res.MissLat.Value()
		}
		if i == 0 {
			b.Logf("bypassing cuts miss latency %.1f%% (%.1f -> %.1f cycles)", 100*(1-lat[0]/lat[1]), lat[1], lat[0])
		}
	}
}

// BenchmarkAblationRegionTracker quantifies the snoop filter's lookup
// savings.
func BenchmarkAblationRegionTracker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Benchmark: "swaptions", WorkPerCore: 100, WarmupPerCore: 150})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("region tracker filtered %d of %d snoops (%.0f%%)",
				res.SnoopsFiltered, res.SnoopsSeen, 100*float64(res.SnoopsFiltered)/float64(res.SnoopsSeen))
		}
	}
}

// BenchmarkAblationWindow sweeps the notification time window beyond the
// chip's 13 cycles.
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []int{13, 26, 52} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof, err := trace.ByName("barnes")
				if err != nil {
					b.Fatal(err)
				}
				opt := system.DefaultOptions(prof)
				opt.Core.Notif.WindowCycles = window
				opt.WorkPerCore, opt.WarmupPerCore = 100, 150
				s, err := system.NewScorpio(opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(50_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("window=%d: ordering latency %.1f cycles, runtime %d", window, res.OrderingLat.Value(), res.Cycles)
				}
			}
		})
	}
}

// BenchmarkRouterThroughput measures raw simulator speed (cycles/sec) on the
// 36-core machine — the engineering metric for the simulator itself.
func BenchmarkRouterThroughput(b *testing.B) {
	prof, err := trace.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	opt := system.DefaultOptions(prof)
	opt.WorkPerCore, opt.WarmupPerCore = 1<<40, 0 // never finishes; we count cycles
	s, err := system.NewScorpio(opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Kernel.Run(uint64(b.N))
	b.ReportMetric(float64(b.N), "cycles")
}

// BenchmarkRouterThroughputTraced is the tracing-overhead guard: the same
// machine as BenchmarkRouterThroughput with the lifecycle tracer attached.
// Comparing the two bounds the cost of tracing when ON; the tracing-OFF cost
// is pinned to zero by the alloc tests (every hook is a nil check).
func BenchmarkRouterThroughputTraced(b *testing.B) {
	prof, err := trace.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	opt := system.DefaultOptions(prof)
	opt.WorkPerCore, opt.WarmupPerCore = 1<<40, 0 // never finishes; we count cycles
	opt.Obs = &obs.Options{Trace: true, TraceCapacity: 1 << 16}
	s, err := system.NewScorpio(opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Kernel.Run(uint64(b.N))
	b.ReportMetric(float64(b.N), "cycles")
}

// BenchmarkAblationMultiNet evaluates Section 5.3's proposed throughput fix:
// striping traffic over multiple main networks at high load.
func BenchmarkAblationMultiNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var miss [2]float64
		for j, nets := range []int{1, 2} {
			res, err := Run(Config{Benchmark: "canneal", Width: 8, Height: 8, WorkPerCore: 80, WarmupPerCore: 120, MainNetworks: nets})
			if err != nil {
				b.Fatal(err)
			}
			miss[j] = res.MissLat.Value()
		}
		if i == 0 {
			b.Logf("64-core canneal miss latency: 1 net %.1f, 2 nets %.1f (%.1f%% lower)", miss[0], miss[1], 100*(1-miss[1]/miss[0]))
		}
	}
}

// BenchmarkBroadcastCapacity validates Section 5.3's capacity formula: the
// broadcast saturation throughput of a k×k mesh is ≈1/k² flits/node/cycle
// (0.027 for 36 cores, 0.01 for 100 cores).
func BenchmarkBroadcastCapacity(b *testing.B) {
	for _, k := range []int{4, 6} {
		b.Run(fmt.Sprintf("%dx%d", k, k), func(b *testing.B) {
			cfg := noc.DefaultConfig()
			cfg.Width, cfg.Height = k, k
			for i := 0; i < b.N; i++ {
				sat, err := traffic.SaturationThroughput(cfg, traffic.Broadcast, 1, 7)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%dx%d broadcast saturation %.4f (theory %.4f)", k, k, sat, 1/float64(k*k))
				}
			}
		})
	}
}
