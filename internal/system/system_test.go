package system

import (
	"testing"

	"scorpio/internal/cache"
	"scorpio/internal/coherence"
	"scorpio/internal/trace"
)

// smallOptions shrinks the machine for fast tests.
func smallOptions(t *testing.T, bench string, nodes int) Options {
	t.Helper()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(prof)
	switch nodes {
	case 16:
		opt.Core = opt.Core.WithMeshSize(4, 4)
	case 36:
		// default
	default:
		t.Fatalf("unsupported node count %d", nodes)
	}
	opt.WorkPerCore = 60
	opt.WarmupPerCore = 120
	return opt
}

func TestScorpioRunsBenchmarkToCompletion(t *testing.T) {
	opt := smallOptions(t, "barnes", 16)
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 16*(60+120) {
		t.Fatalf("completed %d accesses, want %d", res.Completed, 16*(60+120))
	}
	if res.Service.Count != 16*60 {
		t.Fatalf("measured %d accesses, want %d (warmup must be excluded)", res.Service.Count, 16*60)
	}
	if res.Service.Count == 0 || res.Service.Value() <= 0 {
		t.Fatal("no service latency recorded")
	}
	if res.L2Misses == 0 {
		t.Fatal("workload produced no misses")
	}
	t.Logf("barnes 16-core: %d cycles, service latency %.1f, hit %.1f, miss %.1f, cache-served %.0f%%",
		res.Cycles, res.Service.Value(), res.HitLat.Value(), res.MissLat.Value(), 100*res.ServedByCacheFrac())
}

// TestNewScorpioDefaultsMaxOutstanding checks that NewScorpio drives its
// injectors with the defaulted MaxOutstanding, as NewDirectory and
// NewBaseline do: a negative value runs exactly like the default of 2.
func TestNewScorpioDefaultsMaxOutstanding(t *testing.T) {
	run := func(maxOut int) Results {
		opt := smallOptions(t, "fft", 16)
		opt.MaxOutstanding = maxOut
		s, err := NewScorpio(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(1_000_000)
		if err != nil {
			t.Fatalf("MaxOutstanding %d: %v", maxOut, err)
		}
		return res
	}
	got, want := run(-1), run(2)
	if got.Cycles != want.Cycles || got.Completed != want.Completed || got.FlitsRouted != want.FlitsRouted {
		t.Fatalf("MaxOutstanding -1: %d cycles, %d completed, %d flits; MaxOutstanding 2: %d, %d, %d",
			got.Cycles, got.Completed, got.FlitsRouted, want.Cycles, want.Completed, want.FlitsRouted)
	}
}

// TestMCNodesValidated checks that the snoopy machines reject a
// memory-controller list they cannot run, a node outside the mesh or an
// empty list (nil selects the defaults), instead of building a machine that
// never completes a miss.
func TestMCNodesValidated(t *testing.T) {
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range [][]int{{99}, {-1}, {0, 16}, {}} {
		opt := smallOptions(t, "fft", 16)
		opt.MCNodes = mc
		if _, err := NewScorpioBare(opt); err == nil {
			t.Errorf("SCORPIO accepted MCNodes %v on a 4x4 mesh", mc)
		}
		for _, scheme := range []OrderingScheme{SchemeTokenB, SchemeINSO} {
			bopt := DefaultBaselineOptions(scheme, prof)
			bopt.MCNodes = mc
			if _, err := NewBaseline(bopt); err == nil {
				t.Errorf("%s accepted MCNodes %v on a 4x4 mesh", scheme, mc)
			}
		}
	}
}

func TestScorpio36CoreChipConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("36-core run is slow")
	}
	opt := smallOptions(t, "fft", 36)
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Service.Count != 36*60 {
		t.Fatalf("measured %d, want %d", res.Service.Count, 36*60)
	}
	// The paper reports ~90% of requests served by other caches; our
	// synthetic workloads should be cache-served dominated too.
	if f := res.ServedByCacheFrac(); f < 0.3 {
		t.Fatalf("cache-served fraction %.2f is implausibly low", f)
	}
	t.Logf("fft 36-core: %d cycles, miss %.1f cy, cache-served %.0f%%, ordering %.1f cy",
		res.Cycles, res.MissLat.Value(), 100*res.ServedByCacheFrac(), res.OrderingLat.Value())
}

func TestScorpioCoherenceInvariantSingleOwner(t *testing.T) {
	opt := smallOptions(t, "lu", 16)
	opt.WorkPerCore = 120
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	// Single-writer invariant: at quiescence every line has at most one
	// owner (M or O_D) across all tiles, and an M line has no other copies.
	type ownership struct {
		owners int
		copies int
		hasM   bool
	}
	lines := map[uint64]*ownership{}
	for _, l2 := range s.L2s {
		l2.Array().ForEach(func(ln *cache.Line) {
			o := lines[ln.Addr()]
			if o == nil {
				o = &ownership{}
				lines[ln.Addr()] = o
			}
			o.copies++
			switch coherence.State(ln.State()) {
			case coherence.Modified:
				o.owners++
				o.hasM = true
			case coherence.OwnedDirty:
				o.owners++
			}
		})
	}
	for addr, o := range lines {
		if o.owners > 1 {
			t.Fatalf("line %#x has %d owners", addr, o.owners)
		}
		if o.hasM && o.copies > 1 {
			t.Fatalf("line %#x is Modified with %d copies", addr, o.copies)
		}
	}
}

func TestScorpioDeterministicReplay(t *testing.T) {
	run := func() Results {
		opt := smallOptions(t, "fmm", 16)
		s, err := NewScorpio(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Completed != b.Completed || a.FlitsRouted != b.FlitsRouted {
		t.Fatalf("replay diverged: cycles %d/%d completed %d/%d flits %d/%d",
			a.Cycles, b.Cycles, a.Completed, b.Completed, a.FlitsRouted, b.FlitsRouted)
	}
	if a.Service.Value() != b.Service.Value() {
		t.Fatalf("service latency diverged: %v vs %v", a.Service.Value(), b.Service.Value())
	}
}

func TestScorpioSeedSensitivity(t *testing.T) {
	run := func(seed uint64) Results {
		opt := smallOptions(t, "fmm", 16)
		opt.Seed = seed
		s, err := NewScorpio(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	if a.Cycles == b.Cycles && a.FlitsRouted == b.FlitsRouted {
		t.Fatal("different seeds produced identical runs — seeding is broken")
	}
}
