package system

import (
	"reflect"
	"testing"

	"scorpio/internal/directory"
	"scorpio/internal/obs"
	"scorpio/internal/trace"
)

// The activity engine's acceptance contract: enabling idle-skip (the
// default) must be invisible in the results — bit-identical statistics to
// stepping every component every cycle, on every machine, at every worker
// count. The skip-off serial run is the reference for each machine.

func runScorpioSkip(t *testing.T, workers int, disable bool) Results {
	t.Helper()
	opt := smallOptions(t, "fft", 16)
	opt.WorkPerCore, opt.WarmupPerCore = 60, 100
	opt.Workers = workers
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	s.Kernel.SetIdleSkip(!disable)
	res, err := s.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIdleSkipBitIdenticalScorpio(t *testing.T) {
	forceProcs(t, 4)
	ref := runScorpioSkip(t, 0, true)
	if ref.Completed == 0 || ref.Service.Count == 0 {
		t.Fatalf("degenerate reference run: %+v", ref)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, disable := range []bool{false, true} {
			got := runScorpioSkip(t, workers, disable)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("workers=%d disableIdleSkip=%v diverged from skip-off serial:\nref: %+v\ngot: %+v",
					workers, disable, ref, got)
			}
		}
	}
}

func TestIdleSkipBitIdenticalDirectory(t *testing.T) {
	forceProcs(t, 4)
	run := func(workers int, disable bool) Results {
		t.Helper()
		prof, err := trace.ByName("lu")
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultDirectoryOptions(directory.LPD, prof)
		opt.Net.Width, opt.Net.Height = 4, 4
		opt.WorkPerCore, opt.WarmupPerCore = 60, 100
		opt.Workers = workers
		d, err := NewDirectory(opt)
		if err != nil {
			t.Fatal(err)
		}
		d.Kernel.SetIdleSkip(!disable)
		res, err := d.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0, true)
	if ref.Completed == 0 {
		t.Fatalf("degenerate reference run: %+v", ref)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		if got := run(workers, false); !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d skip-on diverged from skip-off serial:\nref: %+v\ngot: %+v", workers, ref, got)
		}
	}
}

func TestIdleSkipBitIdenticalBaselines(t *testing.T) {
	// TokenB and INSO machines are serial-only; skip-on vs skip-off.
	run := func(scheme OrderingScheme, window int, disable bool) Results {
		t.Helper()
		prof, err := trace.ByName("blackscholes")
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultBaselineOptions(scheme, prof)
		opt.ExpiryWindow = window
		opt.WorkPerCore, opt.WarmupPerCore = 60, 100
		b, err := NewBaseline(opt)
		if err != nil {
			t.Fatal(err)
		}
		b.Kernel.SetIdleSkip(!disable)
		res, err := b.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range []struct {
		name   string
		scheme OrderingScheme
		window int
	}{
		{"TokenB", SchemeTokenB, 0},
		{"INSO", SchemeINSO, 20},
	} {
		ref := run(tc.scheme, tc.window, true)
		if ref.Completed == 0 {
			t.Fatalf("%s: degenerate reference run: %+v", tc.name, ref)
		}
		if got := run(tc.scheme, tc.window, false); !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: skip-on diverged from skip-off:\nref: %+v\ngot: %+v", tc.name, ref, got)
		}
	}
}

// TestIdleSkipAuditClean runs the A/B with the online ordering/coherence
// auditor attached: both modes must be audit-clean and produce identical
// statistics (the auditor installs an observer, so this also covers an
// observed run with parking active).
func TestIdleSkipAuditClean(t *testing.T) {
	run := func(disable bool) Results {
		t.Helper()
		opt := smallOptions(t, "barnes", 16)
		opt.WorkPerCore, opt.WarmupPerCore = 60, 100
		opt.Obs = &obs.Options{Audit: true}
		s, err := NewScorpio(opt)
		if err != nil {
			t.Fatal(err)
		}
		s.Kernel.SetIdleSkip(!disable)
		res, err := s.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		a := s.Obs.Auditor
		if a == nil {
			t.Fatal("auditor not attached")
		}
		if a.Commits() == 0 || a.FlitsChecked() == 0 {
			t.Fatalf("auditor saw no traffic (disable=%v)", disable)
		}
		if a.Violated() {
			t.Fatalf("audit violation (disable=%v): %s", disable, a.Report())
		}
		return res
	}
	ref := run(true)
	got := run(false)
	// The observability artifacts hold pointers into each machine; compare
	// the statistics only.
	ref.Obs, got.Obs = nil, nil
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("audited runs diverged:\nskip-off: %+v\nskip-on:  %+v", ref, got)
	}
}
