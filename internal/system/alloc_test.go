package system

import (
	"runtime"
	"testing"

	"scorpio/internal/directory"
	"scorpio/internal/trace"
)

// Steady-state allocation bounds, in average heap allocations per kernel
// step on a warm 6×6 machine under the barnes workload. The network layer
// (flits, VC rings, credit buffers) is allocation-free —
// TestMeshSteadyStateAllocs in internal/traffic pins that at exactly zero;
// flits live in the routers' fixed-capacity VC rings and cross links by
// value, so even broadcast forking allocates nothing. The ordered path is
// allocation-free from the first window, not only once warm: the NICs read
// the notification network's one copy of each merged vector, and their
// send staging and loopback are cut at their bounds, so
// TestOrderedNetAllocatesNothingFromCycleZero in internal/core pins a
// fresh 8×8 net under a broadcast flood at exactly zero. The tile is
// allocation-free per access too: line data lives in the cache array's
// slots, the injector holds its pending access by value, the core queue
// and its staging are cut from one slab at build, and the MSHR forwarding
// lists and memory directory reuse their storage. Protocol messages are
// one object each (coherence.Msg) from the machine's one pool, carved in
// blocks of 64, and every one goes back to it at its last delivery: a
// unicast message at its delivery, a broadcast (SCORPIO's GetS, GetX and
// PutM, HT-D's probes) when its delivery countdown reaches zero, on
// whichever node that happens. A directory home keeps its lines in one
// open-addressed table and its waiting transactions, early writebacks and
// timers in home-wide lists, all reused once made, and every send queue
// starts with room for eight sends; TestHomeSeenLinesAllocateNothing in
// internal/directory pins a home serving lines it has seen at zero. What
// still allocates is the first touch of storage: a home's table doubling
// as new lines arrive, a list or queue passing its first size, and the
// pool's next block.
// Measured on seeds 1–5: SCORPIO 0.000, LPD-D 0.000–0.002, HT-D
// 0.000–0.002 per step (LPD-D 0.054–0.082 and HT-D 0.046–0.076 while each
// home kept a line map, per-line request queues and a growing timer list).
// Each bound sits below what the machine read while broadcasts stayed with
// the garbage collector and each node had its own capped pool (SCORPIO
// 0.61–0.65, LPD-D 0.14–0.18, HT-D 0.29–0.38, at this test's seed 1:
// 0.650, 0.180, 0.338), and the directory bounds below what the per-line
// home state read, so they catch a message that escapes the pool, a home
// that allocates per transaction again, and an accidental per-flit or
// per-cycle allocation.
const (
	scorpioAllocBound = 0.05
	lpdAllocBound     = 0.01
	htAllocBound      = 0.01
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
	t.Logf("SCORPIO: %.3f allocs/step (bound %.2f)", per, scorpioAllocBound)
	if per > scorpioAllocBound {
		t.Fatalf("SCORPIO steady state allocates %.3f times per step, bound %.2f", per, scorpioAllocBound)
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
			t.Logf("%s: %.3f allocs/step (bound %.2f)", tc.v, per, tc.bound)
			if per > tc.bound {
				t.Fatalf("%s steady state allocates %.3f times per step, bound %.2f", tc.v, per, tc.bound)
			}
		})
	}
}

// TestScorpioLiveHeapFlat: a long run keeps no per-request history. On a
// warm 6×6 chip with endless work, 20,000 cycles after the first 22,000 must
// raise the live heap (after GC) by less than 256 KB. A log of every
// accepted ordered request at every node grew it by 2.66 MB.
func TestScorpioLiveHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("42,000 cycles of a loaded 6×6 chip")
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	s := warmScorpioMesh(t, 6, 6, 1)
	s.Kernel.Run(22_000 - s.Kernel.Cycle())
	before := live()
	s.Kernel.Run(20_000)
	grew := live() - before
	runtime.KeepAlive(s)
	t.Logf("live heap +%d bytes over cycles 22,000-42,000", grew)
	if grew >= 256<<10 {
		t.Fatalf("live heap grew %d bytes over 20,000 cycles, want < 256 KB", grew)
	}
}
