package scorpio

import (
	"runtime"
	"testing"

	"scorpio/internal/system"
	"scorpio/internal/trace"
)

// footprintBoundMB bounds the live heap a freshly built default 6×6 SCORPIO
// machine holds (measured 3.44 MB; the 36 L2 arrays of 16-byte lines are
// 2.4 MB of it). The bound fails a 24-byte cache.Line, which reads 4.65 MB.
const footprintBoundMB = 4.0

// defaultOptionsBoundMB bounds the same machine built from
// system.DefaultOptions, whose 256 KB memory-controller directory budget
// gives four 768 KB directory-cache arrays (measured 5.47 MB). The bound
// fails a 24-byte cache.Line (7.70 MB) and directory maps pre-sized to the
// directory budget.
const defaultOptionsBoundMB = 6.5

// directoryBoundMB bounds the live heap of a freshly built default 6×6
// LPD-D or HT-D machine, 24 of the 36 machines of a Figure 6a sweep
// (measured 2.97 and 3.04 MB; their 36 L2 arrays are 2.4 MB of it). The
// bound fails a 24-byte cache.Line (4.16 and 4.24 MB).
const directoryBoundMB = 3.6

// builtMB builds a machine and returns the live heap it holds, in MB.
func builtMB(t *testing.T, build func() (any, error)) float64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(m)
	return float64(int64(ms.HeapAlloc)-int64(before)) / 1e6
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
// from a default Config: the L2 data words live in the cache arrays, not in
// per-tile maps beside them, so the per-tile footprint stays close to the
// array itself.
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
