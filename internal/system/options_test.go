package system

import (
	"reflect"
	"testing"

	"scorpio/internal/directory"
	"scorpio/internal/trace"
)

// TestBuildersDeriveControllerSizes: whatever the caller left in the options,
// every controller of every machine sends data packets of its mesh's size,
// and its L2 holds the workload's outstanding misses. SCORPIO's
// pending-notification budget is raised to the outstanding limit, never
// lowered: at 3 outstanding misses, one above the L2's 2 MSHRs, it keeps the
// chip's 4.
func TestBuildersDeriveControllerSizes(t *testing.T) {
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	chipNotifs := DefaultOptions(prof).Core.NIC.MaxPendingNotifs
	for _, cw := range []int{8, 16, 32} {
		for _, maxOut := range []int{2, 3, 6} {
			sopt := DefaultOptions(prof)
			sopt.Core = sopt.Core.WithMeshSize(4, 4)
			sopt.Core.Net.ChannelBytes, sopt.MaxOutstanding = cw, maxOut
			s, err := NewScorpioBare(sopt)
			if err != nil {
				t.Fatal(err)
			}
			want := s.opt.Core.Net.DataPacketFlits()
			if got := s.opt; got.L2.DataFlits != want || got.Mem.DataFlits != want {
				t.Errorf("SCORPIO CW=%dB: L2 %d-flit data, memory %d, mesh %d", cw, got.L2.DataFlits, got.Mem.DataFlits, want)
			}
			if got := s.opt; got.L2.MSHRs < maxOut || got.L2.CoreQueueDepth < 2*maxOut || got.Core.NIC.MaxPendingNotifs != max(chipNotifs, maxOut) {
				t.Errorf("SCORPIO %d outstanding: %d MSHRs, core queue %d, %d pending notifications",
					maxOut, got.L2.MSHRs, got.L2.CoreQueueDepth, got.Core.NIC.MaxPendingNotifs)
			}

			dopt := DefaultDirectoryOptions(directory.HT, prof)
			dopt.Net.ChannelBytes, dopt.MaxOutstanding = cw, maxOut
			d, err := NewDirectory(dopt)
			if err != nil {
				t.Fatal(err)
			}
			want = d.opt.Net.DataPacketFlits()
			if got := d.opt; got.L2.DataFlits != want || got.Home.DataFlits != want {
				t.Errorf("HT-D CW=%dB: L2 %d-flit data, home %d, mesh %d", cw, got.L2.DataFlits, got.Home.DataFlits, want)
			}
			if got := d.opt.L2; got.MSHRs < maxOut || got.CoreQueueDepth < 2*maxOut {
				t.Errorf("HT-D %d outstanding: %d MSHRs, core queue %d", maxOut, got.MSHRs, got.CoreQueueDepth)
			}

			bopt := DefaultBaselineOptions(SchemeINSO, prof)
			bopt.Net.ChannelBytes, bopt.MaxOutstanding = cw, maxOut
			b, err := NewBaseline(bopt)
			if err != nil {
				t.Fatal(err)
			}
			want = b.opt.Net.DataPacketFlits()
			if got := b.opt; got.L2.DataFlits != want || got.Mem.DataFlits != want {
				t.Errorf("INSO CW=%dB: L2 %d-flit data, memory %d, mesh %d", cw, got.L2.DataFlits, got.Mem.DataFlits, want)
			}
			if got := b.opt.L2; got.MSHRs < maxOut || got.CoreQueueDepth < 2*maxOut {
				t.Errorf("INSO %d outstanding: %d MSHRs, core queue %d", maxOut, got.MSHRs, got.CoreQueueDepth)
			}
		}
	}
}

// runDirectory runs opt for 60 measured and 40 warm-up accesses per core.
func runDirectory(t *testing.T, opt DirectoryOptions) Results {
	t.Helper()
	opt.WorkPerCore, opt.WarmupPerCore = 60, 40
	d, err := NewDirectory(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(300_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDirectoryResizedAfterDefaultsFinishes: the directory builder sizes its
// controllers for the mesh the options name, not the one
// DefaultDirectoryOptions was called with.
func TestDirectoryResizedAfterDefaultsFinishes(t *testing.T) {
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultDirectoryOptions(directory.LPD, prof)
	opt.Net.Width, opt.Net.Height = 4, 4
	if res := runDirectory(t, opt); res.Completed != 16*100 {
		t.Fatalf("4x4 LPD-D completed %d accesses, want %d", res.Completed, 16*100)
	}
}

// TestDirectoryVariantSwitchedAfterDefaults: a machine switched to the other
// variant after DefaultDirectoryOptions runs exactly like a direct build of
// that variant, directory entries included.
func TestDirectoryVariantSwitchedAfterDefaults(t *testing.T) {
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []directory.Variant{directory.LPD, directory.HT} {
		other := directory.HT
		if v == directory.HT {
			other = directory.LPD
		}
		switched := DefaultDirectoryOptions(other, prof)
		switched.Variant = v
		got, want := runDirectory(t, switched), runDirectory(t, DefaultDirectoryOptions(v, prof))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v switched from %v's defaults ran %d cycles, a direct %v build %d", v, other, got.Cycles, v, want.Cycles)
		}
	}
}
