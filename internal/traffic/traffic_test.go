package traffic

import (
	"testing"

	"scorpio/internal/noc"
)

func net4x4() noc.Config {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	return cfg
}

func TestLowLoadLatencyNearZeroLoad(t *testing.T) {
	res, err := Run(Config{Net: net4x4(), Pattern: UniformRandom, InjectionRate: 0.005, Flits: 1, Cycles: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Zero-load latency on a 4x4 with bypassing: ~1 + (hops+1)*2 ≈ 8 cycles
	// average; allow generous headroom.
	if res.AvgLatency > 15 {
		t.Fatalf("low-load latency %.1f cycles is too high", res.AvgLatency)
	}
	// Accepted tracks offered at low load.
	if float64(res.Delivered) < 0.9*float64(res.Offered) {
		t.Fatalf("delivered %d of %d offered at low load", res.Delivered, res.Offered)
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	low, err := Run(Config{Net: net4x4(), Pattern: UniformRandom, InjectionRate: 0.01, Flits: 3, Cycles: 15000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(Config{Net: net4x4(), Pattern: UniformRandom, InjectionRate: 0.12, Flits: 3, Cycles: 15000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if high.AvgLatency <= low.AvgLatency {
		t.Fatalf("latency did not rise with load: %.1f -> %.1f", low.AvgLatency, high.AvgLatency)
	}
}

func TestPatternsDeliver(t *testing.T) {
	for _, p := range []Pattern{UniformRandom, BitComplement, Transpose, Hotspot, Broadcast} {
		res, err := Run(Config{Net: net4x4(), Pattern: p, InjectionRate: 0.01, Flits: 1, Cycles: 10000, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Delivered == 0 {
			t.Fatalf("%s delivered nothing", p)
		}
		if p.String() == "" {
			t.Fatal("unnamed pattern")
		}
	}
}

func TestBroadcastSaturationNearTheoretical(t *testing.T) {
	// Section 5.3: broadcast capacity of a k×k mesh ≈ 1/k² flits/node/cycle
	// (0.0625 for 4×4). The measured saturation point should land in that
	// neighbourhood — same order, not far above the bound.
	cfg := net4x4()
	sat, err := SaturationThroughput(cfg, Broadcast, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	theory := 1.0 / float64(cfg.Width*cfg.Width)
	t.Logf("measured broadcast saturation %.4f, theoretical bound %.4f flits/node/cycle", sat, theory)
	if sat > 1.6*theory {
		t.Fatalf("measured saturation %.4f exceeds the theoretical bound %.4f by too much", sat, theory)
	}
	if sat < theory/4 {
		t.Fatalf("measured saturation %.4f is implausibly far below the bound %.4f", sat, theory)
	}
}

func TestHotspotSaturatesBelowUniform(t *testing.T) {
	cfg := net4x4()
	uni, err := SaturationThroughput(cfg, UniformRandom, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := SaturationThroughput(cfg, Hotspot, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("saturation: uniform %.4f, hotspot %.4f", uni, hot)
	if hot >= uni {
		t.Fatal("a hotspot must saturate before uniform traffic")
	}
}

// TestTrafficPinned pins the harness's results across commits; the
// determinism tests compare runs within one process only. The literals are
// the 6×6 drainRun digest and two open-loop runs as this code produced them.
// A change that moves one on purpose updates it and says why in CHANGES.md.
func TestTrafficPinned(t *testing.T) {
	const wantID = 0xd9787e7fe535e3fe
	if id := drainRun(t, 1, 6, 6, true); id != wantID {
		t.Errorf("6x6 drainRun: packet-ID digest %#x; pinned %#x", id, uint64(wantID))
	}
	for _, want := range []Result{
		{Pattern: Broadcast, InjectionRate: 0.05, AcceptedRate: 0.02711607142857143, AvgLatency: 1265.071592336492, P99Latency: 4504, Delivered: 163998, Offered: 8525},
		{Pattern: UniformRandom, InjectionRate: 0.05, AcceptedRate: 0.04788773148148148, AvgLatency: 18.762175226586102, P99Latency: 56, Delivered: 8275, Offered: 8283},
	} {
		got := mustRun(t, Config{Net: noc.DefaultConfig(), Pattern: want.Pattern, InjectionRate: 0.05, Flits: 3, Cycles: 6000, Seed: 3})
		if got != want {
			t.Errorf("%s, 3 flits, rate 0.05, seed 3:\ngot    %+v\npinned %+v", want.Pattern, got, want)
		}
	}
}
