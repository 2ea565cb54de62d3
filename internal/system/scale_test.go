package system

import (
	"reflect"
	"runtime"
	"testing"

	"scorpio/internal/directory"
	"scorpio/internal/trace"
)

// forceProcs pins GOMAXPROCS for one test so the kernel builds its worker
// pool even on a single-CPU host (with GOMAXPROCS=1 it steps workers > 1
// serially — bit-identical, but it would leave the barrier engine
// unexercised here).
func forceProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// run16x16 executes a seeded 256-tile SCORPIO machine — four times the
// paper's chip and well past the old 64-node ceilings — at the given worker
// count.
func run16x16(t *testing.T, workers int) Results {
	t.Helper()
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(prof)
	opt.Core = opt.Core.WithMeshSize(16, 16)
	opt.WorkPerCore, opt.WarmupPerCore = 3, 5
	opt.Workers = workers
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelDeterminism16x16 is the scale version of the kernel's
// order-independence contract: a 16×16 (256-node) SCORPIO machine must
// produce bit-identical statistics serial and at 2, 4 and 8 workers. It
// doubles as the proof that a 100+-node mesh runs end to end on the snoopy
// machine (the notification network's packed vectors and the deep ESID
// machinery all scale past the former uint64 ceilings).
func TestParallelDeterminism16x16(t *testing.T) {
	if testing.Short() {
		t.Skip("four 256-node runs exceed the -short (race-gate) budget; the full test gate covers this")
	}
	forceProcs(t, 4)
	serial := run16x16(t, 0)
	if serial.Completed == 0 || serial.Service.Count == 0 {
		t.Fatalf("degenerate reference run: %+v", serial)
	}
	for _, workers := range []int{2, 4, 8} {
		if got := run16x16(t, workers); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverged from serial:\nserial:   %+v\nparallel: %+v", workers, serial, got)
		}
	}
}

// TestDirectoryMachine100Nodes proves the directory ceiling is gone: a
// 10×10 (100-node) machine — impossible before the sharer bitmask became a
// multi-word bitset — runs end to end on both directory variants.
func TestDirectoryMachine100Nodes(t *testing.T) {
	for _, v := range []directory.Variant{directory.LPD, directory.HT} {
		prof, err := trace.ByName("lu")
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultDirectoryOptions(v, prof)
		opt.Net.Width, opt.Net.Height = 10, 10
		opt.WorkPerCore, opt.WarmupPerCore = 4, 6
		d, err := NewDirectory(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(10_000_000)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Completed != 100*(4+6) {
			t.Fatalf("%v: completed %d requests, want %d", v, res.Completed, 100*(4+6))
		}
	}
}

// TestBaseline100Nodes runs the ordering baselines at 100 nodes, closing the
// third machine family's end-to-end scale check.
func TestBaseline100Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("100-node broadcast baselines are minutes under -race; the full test gate covers this")
	}
	for _, scheme := range []OrderingScheme{SchemeTokenB, SchemeINSO} {
		prof, err := trace.ByName("fft")
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultBaselineOptions(scheme, prof)
		opt.Net.Width, opt.Net.Height = 10, 10
		opt.WorkPerCore, opt.WarmupPerCore = 4, 6
		b, err := NewBaseline(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(10_000_000)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Completed != 100*(4+6) {
			t.Fatalf("%v: completed %d requests, want %d", scheme, res.Completed, 100*(4+6))
		}
	}
}
