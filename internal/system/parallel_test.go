package system

import (
	"reflect"
	"testing"

	"scorpio/internal/directory"
	"scorpio/internal/trace"
)

// parallelRun executes a seeded 16-tile SCORPIO run at the given worker count
// and returns the full Results snapshot.
func parallelRun(t *testing.T, workers int) Results {
	t.Helper()
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(prof)
	opt.Core = opt.Core.WithMeshSize(4, 4)
	opt.WorkPerCore, opt.WarmupPerCore = 80, 120
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

// TestParallelDeterminism is the kernel's order-independence contract,
// enforced end to end: the same seeded machine must produce bit-identical
// statistics on the serial path and at 1, 2 and 8 workers. Run under -race
// this also proves the sharded evaluate/commit phases are data-race free.
func TestParallelDeterminism(t *testing.T) {
	forceProcs(t, 4)
	serial := parallelRun(t, 0)
	if serial.Completed == 0 || serial.Service.Count == 0 {
		t.Fatalf("degenerate reference run: %+v", serial)
	}
	for _, workers := range []int{1, 2, 8} {
		got := parallelRun(t, workers)
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverged from serial:\nserial:   %+v\nparallel: %+v", workers, serial, got)
		}
	}
}

// TestParallelDeterminismDirectory covers the directory machines' sharding
// (one unit per node: injector, L2, home slice, NIC), which also shares
// each node's message pool: LPD-D's unicast traffic, and HT-D's probe
// broadcasts with the home's pooled local probe copy.
func TestParallelDeterminismDirectory(t *testing.T) {
	forceProcs(t, 4)
	for _, v := range []directory.Variant{directory.LPD, directory.HT} {
		t.Run(v.String(), func(t *testing.T) {
			run := func(workers int) Results {
				prof, err := trace.ByName("lu")
				if err != nil {
					t.Fatal(err)
				}
				opt := DefaultDirectoryOptions(v, prof)
				opt.Net.Width, opt.Net.Height = 4, 4
				opt.L2.Nodes, opt.Home.Nodes = 0, 0 // re-derive for the smaller mesh
				opt.fillDefaults()
				opt.WorkPerCore, opt.WarmupPerCore = 60, 100
				opt.Workers = workers
				d, err := NewDirectory(opt)
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Run(10_000_000)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := run(0)
			if serial.Completed == 0 {
				t.Fatalf("degenerate reference run: %+v", serial)
			}
			for _, workers := range []int{2, 8} {
				if got := run(workers); !reflect.DeepEqual(serial, got) {
					t.Errorf("workers=%d diverged from serial:\nserial:   %+v\nparallel: %+v", workers, serial, got)
				}
			}
		})
	}
}

// TestParallelDeterminismWithL1 exercises the tile layer (AHB + split L1s) in
// the node scheduling unit.
func TestParallelDeterminismWithL1(t *testing.T) {
	forceProcs(t, 4)
	run := func(workers int) Results {
		prof, err := trace.ByName("barnes")
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions(prof)
		opt.Core = opt.Core.WithMeshSize(4, 4)
		opt.WorkPerCore, opt.WarmupPerCore = 60, 100
		opt.UseL1 = true
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
	serial := run(0)
	if got := run(4); !reflect.DeepEqual(serial, got) {
		t.Errorf("workers=4 with L1 tiles diverged from serial:\nserial:   %+v\nparallel: %+v", serial, got)
	}
}
