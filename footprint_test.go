package scorpio

import (
	"runtime"
	"testing"
	"unsafe"

	"scorpio/internal/cache"
	"scorpio/internal/sim"
	"scorpio/internal/system"
	"scorpio/internal/trace"
)

// footprintBoundMB bounds the live heap a freshly built default 6×6 SCORPIO
// machine holds (measured 2.28 MB; the 36 L2 arrays of 8-byte lines are
// 1.18 MB of it, and a trace-driven machine makes no data plane). The bound
// fails a 16-byte cache.Line that carries its data word, which reads
// 3.45 MB.
const footprintBoundMB = 2.8

// defaultOptionsBoundMB bounds the same machine built from
// system.DefaultOptions, whose 256 KB memory-controller directory budget
// gives four directory-cache arrays of 32,768 lines, 256 KB each at 8-byte
// lines (measured 3.29 MB). The bound fails a 16-byte cache.Line (5.48 MB)
// and directory maps pre-sized to the directory budget.
const defaultOptionsBoundMB = 4.0

// directoryBoundMB bounds the live heap of a freshly built default 6×6
// LPD-D or HT-D machine, 24 of the 36 machines of a Figure 6a sweep
// (measured 1.88-1.91 MB; their 36 L2 arrays are 1.18 MB of it). The bound
// fails a 16-byte cache.Line (3.05-3.08 MB).
const directoryBoundMB = 2.4

// l2ArraysMB is what the 36 L2 arrays of a 6×6 machine hold on their own
// (36 × 4,096 lines): no reading of such a machine can be less.
const l2ArraysMB = float64(unsafe.Sizeof(cache.Line{})) * 36 * 4096 / 1e6

// builtMB builds a machine and returns the live heap it holds, in MB: the
// drop in live heap when the built machine is released (build, collect,
// read; drop the machine, collect, read). Memory an earlier machine frees
// during the build cannot cancel out of that reading, as it could out of
// the rise from before the build. A reading below the L2 arrays' own
// bytes fails, so an under-read can never pass a bound.
func builtMB(t *testing.T, build func() (any, error)) float64 {
	t.Helper()
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := ms.HeapAlloc
	runtime.KeepAlive(m)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mb := float64(int64(held)-int64(ms.HeapAlloc)) / 1e6
	if mb < l2ArraysMB {
		t.Fatalf("built machine read %.2f MB, less than its L2 arrays' %.2f MB: the reading lost part of the machine", mb, l2ArraysMB)
	}
	return mb
}

// filledConfig returns the default Config of benchmark fft on protocol p and
// the profile it names.
func filledConfig(t *testing.T, p Protocol) (Config, trace.Profile) {
	t.Helper()
	cfg := Config{Protocol: p, Benchmark: "fft"}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	prof, err := profile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, prof
}

// TestScorpioBuildFootprint pins the live heap of the machine Run builds
// from a default Config: the L2 data words live in each cache array's data
// plane, not in per-tile maps beside it, and a trace-driven machine stores
// no value that would make a plane, so the per-tile footprint stays close
// to the array's lines themselves.
func TestScorpioBuildFootprint(t *testing.T) {
	cfg, prof := filledConfig(t, SCORPIO)
	mb := builtMB(t, func() (any, error) { return system.NewScorpio(scorpioOptions(cfg, prof)) })
	t.Logf("default 6×6 SCORPIO machine holds %.2f MB (bound %.1f)", mb, footprintBoundMB)
	if mb > footprintBoundMB {
		t.Fatalf("built machine holds %.2f MB of live heap, bound %.1f MB", mb, footprintBoundMB)
	}
}

// TestDefaultOptionsBuildFootprint pins the live heap of a machine built
// from system.DefaultOptions: the memory controllers' directory maps hold
// every line a run touches, which no budget bounds, so they must not be
// pre-sized to the directory-cache budget.
func TestDefaultOptionsBuildFootprint(t *testing.T) {
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	mb := builtMB(t, func() (any, error) { return system.NewScorpio(system.DefaultOptions(prof)) })
	t.Logf("system.DefaultOptions 6×6 SCORPIO machine holds %.2f MB (bound %.1f)", mb, defaultOptionsBoundMB)
	if mb > defaultOptionsBoundMB {
		t.Fatalf("built machine holds %.2f MB of live heap, bound %.1f MB", mb, defaultOptionsBoundMB)
	}
}

// TestDirectoryBuildFootprint pins the live heap of the LPD-D and HT-D
// machines Run builds from a default Config.
func TestDirectoryBuildFootprint(t *testing.T) {
	for _, p := range []Protocol{LPDD, HTD} {
		cfg, prof := filledConfig(t, p)
		mb := builtMB(t, func() (any, error) { return system.NewDirectory(directoryOptions(cfg, prof)) })
		t.Logf("default 6×6 %s machine holds %.2f MB (bound %.1f)", p, mb, directoryBoundMB)
		if mb > directoryBoundMB {
			t.Errorf("built %s machine holds %.2f MB of live heap, bound %.1f MB", p, mb, directoryBoundMB)
		}
	}
}

// buildAllocsBoundScorpio6x6, buildAllocsBoundDirectory6x6 and
// buildAllocsBound16x16 bound the heap allocations of one machine build
// plus its first kernel step. Every component kind that exists once per
// node, port or link is one slice per machine, so the count no longer grows
// with the mesh: SCORPIO 159-166 and LPD-D/HT-D 136-144 at 6×6, 198-203 at
// 16×16, against 3,236-3,390 and 23,349 when each router, link, ring,
// controller and injector was its own object, and 180-195 at 6×6 while each
// directory home made a line map and each memory controller a held-request
// map at build. A kind allocated once per node again adds 36 at 6×6, which
// both 6×6 bounds catch, and 256 at 16×16; links one by one add 576 and
// 4,416.
const (
	buildAllocsBoundScorpio6x6   = 190
	buildAllocsBoundDirectory6x6 = 170
	buildAllocsBound16x16        = 1500
)

// buildBytesBound6x6MB and buildBytesBound16x16MB bound the bytes one
// machine build plus its first kernel step allocates, live or garbage
// (measured 1.92-2.28 MB at 6×6 and 14.59 MB at 16×16). Bench times each
// build right after a collection, over a live heap far below Go's 4 MB
// minimum heap goal, so a 6×6 build that allocates enough more, even as
// garbage, starts a collection mid-build. The bounds fail 16-byte cache
// lines, which read 3.10-3.49 and 23.01 MB.
const (
	buildBytesBound6x6MB   = 2.6
	buildBytesBound16x16MB = 16
)

// buildAllocs counts the heap allocations and the MB allocated by build and
// the first Step of the kernel it returns.
func buildAllocs(t *testing.T, build func() (*sim.Kernel, error)) (allocs uint64, mb float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k, err := build()
	if err != nil {
		t.Fatal(err)
	}
	k.Step()
	runtime.ReadMemStats(&after)
	k.StopWorkers()
	return after.Mallocs - before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// TestBuildAllocs pins the allocations and the bytes allocated of building
// the machines Run builds and stepping them once.
func TestBuildAllocs(t *testing.T) {
	scorpioBuild := func(cfg Config) func() (*sim.Kernel, error) {
		return func() (*sim.Kernel, error) {
			prof, err := profile(cfg)
			if err != nil {
				return nil, err
			}
			s, err := system.NewScorpio(scorpioOptions(cfg, prof))
			if err != nil {
				return nil, err
			}
			return s.Kernel, nil
		}
	}
	directoryBuild := func(cfg Config) func() (*sim.Kernel, error) {
		return func() (*sim.Kernel, error) {
			prof, err := profile(cfg)
			if err != nil {
				return nil, err
			}
			d, err := system.NewDirectory(directoryOptions(cfg, prof))
			if err != nil {
				return nil, err
			}
			return d.Kernel, nil
		}
	}
	big := Config{Protocol: SCORPIO, Benchmark: "fft", Width: 16, Height: 16, Workers: 2}
	if err := big.fill(); err != nil {
		t.Fatal(err)
	}
	scorpio36, _ := filledConfig(t, SCORPIO)
	lpd36, _ := filledConfig(t, LPDD)
	ht36, _ := filledConfig(t, HTD)
	for _, c := range []struct {
		name    string
		build   func() (*sim.Kernel, error)
		bound   uint64
		boundMB float64
	}{
		{"SCORPIO/6x6", scorpioBuild(scorpio36), buildAllocsBoundScorpio6x6, buildBytesBound6x6MB},
		{"LPD-D/6x6", directoryBuild(lpd36), buildAllocsBoundDirectory6x6, buildBytesBound6x6MB},
		{"HT-D/6x6", directoryBuild(ht36), buildAllocsBoundDirectory6x6, buildBytesBound6x6MB},
		{"SCORPIO/16x16/workers=2", scorpioBuild(big), buildAllocsBound16x16, buildBytesBound16x16MB},
	} {
		n, mb := buildAllocs(t, c.build)
		t.Logf("%s: %d allocations, %.2f MB, to build and step once (bounds %d, %.1f MB)", c.name, n, mb, c.bound, c.boundMB)
		if n > c.bound {
			t.Errorf("%s: building and stepping once made %d allocations, bound %d", c.name, n, c.bound)
		}
		if mb > c.boundMB {
			t.Errorf("%s: building and stepping once allocated %.2f MB, bound %.1f MB", c.name, mb, c.boundMB)
		}
	}
}
