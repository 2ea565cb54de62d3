package system

import (
	"testing"

	"scorpio/internal/cache"
	"scorpio/internal/coherence"
	"scorpio/internal/directory"
	"scorpio/internal/trace"
)

func smallDirOptions(t *testing.T, v directory.Variant, bench string, nodes int) DirectoryOptions {
	t.Helper()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultDirectoryOptions(v, prof)
	if nodes == 16 {
		opt.Net.Width, opt.Net.Height = 4, 4
	}
	opt.WorkPerCore = 60
	opt.WarmupPerCore = 120
	return opt
}

func runDir(t *testing.T, v directory.Variant, bench string, nodes int) Results {
	t.Helper()
	opt := smallDirOptions(t, v, bench, nodes)
	d, err := NewDirectory(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Single-owner invariant at quiescence.
	type own struct {
		owners, copies int
		hasM           bool
	}
	lines := map[uint64]*own{}
	for _, l2 := range d.L2s {
		l2.Array().ForEach(func(ln *cache.Line) {
			o := lines[ln.Addr()]
			if o == nil {
				o = &own{}
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
			t.Fatalf("%s: line %#x has %d owners", v, addr, o.owners)
		}
		if o.hasM && o.copies > 1 {
			t.Fatalf("%s: line %#x Modified with %d copies", v, addr, o.copies)
		}
	}
	return res
}

func TestLPDDirectoryRunsToCompletion(t *testing.T) {
	res := runDir(t, directory.LPD, "barnes", 16)
	if res.Service.Count != 16*60 {
		t.Fatalf("measured %d accesses, want %d", res.Service.Count, 16*60)
	}
	if res.DirTransactions == 0 {
		t.Fatal("no directory transactions recorded")
	}
	t.Logf("LPD-D barnes: %d cycles, service %.1f, miss %.1f, cache-served %.0f%%, dir misses %d/%d",
		res.Cycles, res.Service.Value(), res.MissLat.Value(), 100*res.ServedByCacheFrac(),
		res.DirCacheMisses, res.DirCacheMisses+res.DirCacheHits)
}

func TestHTDirectoryRunsToCompletion(t *testing.T) {
	res := runDir(t, directory.HT, "barnes", 16)
	if res.Service.Count != 16*60 {
		t.Fatalf("measured %d accesses, want %d", res.Service.Count, 16*60)
	}
	t.Logf("HT-D barnes: %d cycles, service %.1f, miss %.1f, cache-served %.0f%%",
		res.Cycles, res.Service.Value(), res.MissLat.Value(), 100*res.ServedByCacheFrac())
}

func TestDirectoryVsScorpioMissLatency(t *testing.T) {
	// The paper's core claim (Fig 6): SCORPIO's cache-to-cache misses avoid
	// the directory indirection, so its miss latency is lower than both
	// baselines under the same workload.
	sOpt := smallOptions(t, "lu", 16)
	s, err := NewScorpio(sOpt)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := s.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	lr := runDir(t, directory.LPD, "lu", 16)
	hr := runDir(t, directory.HT, "lu", 16)
	t.Logf("miss latency: SCORPIO=%.1f LPD-D=%.1f HT-D=%.1f", sr.MissLat.Value(), lr.MissLat.Value(), hr.MissLat.Value())
	t.Logf("runtime: SCORPIO=%.0f LPD-D=%.0f HT-D=%.0f", sr.Runtime(), lr.Runtime(), hr.Runtime())
	if sr.Runtime() >= lr.Runtime() {
		t.Errorf("SCORPIO runtime %.0f should beat LPD-D %.0f", sr.Runtime(), lr.Runtime())
	}
	if sr.Runtime() >= hr.Runtime() {
		t.Errorf("SCORPIO runtime %.0f should beat HT-D %.0f", sr.Runtime(), hr.Runtime())
	}
}
