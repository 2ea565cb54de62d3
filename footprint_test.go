package scorpio

import (
	"runtime"
	"testing"

	"scorpio/internal/system"
	"scorpio/internal/trace"
)

// footprintBoundMB bounds the live heap a freshly built default 6×6 SCORPIO
// machine holds (measured 4.62 MB; the 36 L2 arrays of 24-byte lines are
// 3.5 MB of it). The bound fails a 32-byte cache.Line, which reads 5.83 MB.
const footprintBoundMB = 5.2

// defaultOptionsBoundMB bounds the same machine built from
// system.DefaultOptions, whose 256 KB memory-controller directory budget
// gives four 768 KB directory-cache arrays (measured 7.66 MB). The bound
// fails a 32-byte cache.Line (9.89 MB) and directory maps pre-sized to the
// directory budget (16.7 MB).
const defaultOptionsBoundMB = 8.8

// builtMB builds a SCORPIO machine from opt and returns the live heap it
// holds, in MB.
func builtMB(t *testing.T, opt system.Options) float64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	s, err := system.NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	return float64(int64(ms.HeapAlloc)-int64(before)) / 1e6
}

// TestScorpioBuildFootprint pins the live heap of the machine Run builds
// from a default Config: the L2 data words live in the cache arrays, not in
// per-tile maps beside them, so the per-tile footprint stays close to the
// array itself.
func TestScorpioBuildFootprint(t *testing.T) {
	cfg := Config{Benchmark: "fft"}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	prof, err := trace.ByName(cfg.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	mb := builtMB(t, scorpioOptions(cfg, prof))
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
	mb := builtMB(t, system.DefaultOptions(prof))
	t.Logf("system.DefaultOptions 6×6 SCORPIO machine holds %.2f MB (bound %.1f)", mb, defaultOptionsBoundMB)
	if mb > defaultOptionsBoundMB {
		t.Fatalf("built machine holds %.2f MB of live heap, bound %.1f MB", mb, defaultOptionsBoundMB)
	}
}
