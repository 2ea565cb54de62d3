package system

import (
	"testing"

	"scorpio/internal/directory"
	"scorpio/internal/trace"
)

// Steady-state allocation bounds, in average heap allocations per kernel
// step on a warm 6×6 machine under the barnes workload. The network layer
// (flits, VC rings, credit buffers, NIC staging) is allocation-free —
// TestMeshSteadyStateAllocs in internal/traffic pins that at exactly zero;
// flits live in the routers' fixed-capacity VC rings and cross links by
// value, so even broadcast forking allocates nothing. The tile is
// allocation-free per access too: line data lives in the cache array's
// slots, the injector holds its pending access by value, and the core
// queues, MSHR forwarding lists and memory directory reuse their storage.
// Protocol messages are one object each (coherence.Msg), and a unicast one
// goes back to the pool of the node whose NIC delivered it, so what remains
// is mostly broadcasts, which every node shares and the garbage collector
// keeps: SCORPIO's GetS/GetX/PutM and HT-D's probes. SCORPIO's memory
// controller tiles also send far more data than they receive, so their
// pools run dry. Directory homes carve their lines from blocks.
// Measured on seeds 1–5: SCORPIO 0.64–0.68, LPD-D 0.14–0.18, HT-D
// 0.29–0.38 per step. The bounds leave about 1.5× headroom over the worst
// of those, yet sit below the 1.17–1.35, 2.14–2.67 and 2.27–2.92 per step
// that unpooled messages cost, so they catch a message that escapes its
// pool as well as an accidental per-flit or per-cycle allocation.
const (
	scorpioAllocBound = 1.0
	lpdAllocBound     = 0.3
	htAllocBound      = 0.6
)

// steadyAllocsPerStep warms the machine, then measures average allocations
// per kernel step over repeated 500-step windows.
func steadyAllocsPerStep(t *testing.T, step func(), warmSteps, measureSteps int) float64 {
	t.Helper()
	for i := 0; i < warmSteps; i++ {
		step()
	}
	per := testing.AllocsPerRun(3, func() {
		for i := 0; i < measureSteps; i++ {
			step()
		}
	})
	return per / float64(measureSteps)
}

func TestScorpioSteadyStateAllocs(t *testing.T) {
	prof, err := trace.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(prof)
	// Effectively infinite work: the cores must still be issuing while we
	// measure.
	opt.WorkPerCore = 1 << 40
	opt.WarmupPerCore = 0
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	per := steadyAllocsPerStep(t, s.Kernel.Step, 6000, 500)
	t.Logf("SCORPIO: %.2f allocs/step (bound %.1f)", per, scorpioAllocBound)
	if per > scorpioAllocBound {
		t.Fatalf("SCORPIO steady state allocates %.2f times per step, bound %.1f", per, scorpioAllocBound)
	}
}

func TestDirectorySteadyStateAllocs(t *testing.T) {
	prof, err := trace.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v     directory.Variant
		bound float64
	}{{directory.LPD, lpdAllocBound}, {directory.HT, htAllocBound}} {
		t.Run(tc.v.String(), func(t *testing.T) {
			opt := DefaultDirectoryOptions(tc.v, prof)
			opt.WorkPerCore = 1 << 40
			opt.WarmupPerCore = 0
			d, err := NewDirectory(opt)
			if err != nil {
				t.Fatal(err)
			}
			per := steadyAllocsPerStep(t, d.Kernel.Step, 6000, 500)
			t.Logf("%s: %.2f allocs/step (bound %.1f)", tc.v, per, tc.bound)
			if per > tc.bound {
				t.Fatalf("%s steady state allocates %.2f times per step, bound %.1f", tc.v, per, tc.bound)
			}
		})
	}
}
