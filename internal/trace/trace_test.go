package trace

import (
	"runtime"
	"testing"

	"scorpio/internal/stats"
)

// recorderPort accepts every request and records it.
type recorderPort struct {
	addrs  []uint64
	writes int
}

func (r *recorderPort) CoreRequest(addr uint64, write bool, cycle uint64) bool {
	r.addrs = append(r.addrs, addr)
	if write {
		r.writes++
	}
	return true
}

func TestAllProfilesValidate(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("expected 14 benchmark profiles, got %d", len(all))
	}
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if len(Suite("splash2")) != 8 {
		t.Fatalf("SPLASH-2 suite should have 8 profiles")
	}
	if len(Suite("parsec")) != 6 {
		t.Fatalf("PARSEC suite should have 6 profiles")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("barnes")
	if err != nil || p.Name != "barnes" {
		t.Fatalf("ByName failed: %v %v", p, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ByName("fft")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.IssueProb = 0 },
		func(p *Profile) { p.IssueProb = 1.5 },
		func(p *Profile) { p.WriteFrac = -0.1 },
		func(p *Profile) { p.SharedFrac = 0.9; p.ColdFrac = 0.2 },
		func(p *Profile) { p.SharedLines = 0 },
		func(p *Profile) { p.ReuseProb = 1.0 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: invalid profile accepted", i)
		}
	}
}

// drive runs an injector for n cycles against a sink port.
func drive(in *Injector, n uint64) {
	for c := uint64(0); c < n; c++ {
		in.Evaluate(c)
		in.Commit(c)
		// Complete immediately: one outstanding slot frees per issue.
		for in.outstanding > 0 {
			in.OnComplete(0, false, c, c+1, true, false, nil)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	prof, _ := ByName("lu")
	a := NewInjector(3, prof, 42, &recorderPort{}, 2, 0, 1000)
	b := NewInjector(3, prof, 42, &recorderPort{}, 2, 0, 1000)
	pa := a.port.(*recorderPort)
	pb := b.port.(*recorderPort)
	drive(a, 30000)
	drive(b, 30000)
	if len(pa.addrs) == 0 || len(pa.addrs) != len(pb.addrs) {
		t.Fatalf("streams differ in length: %d vs %d", len(pa.addrs), len(pb.addrs))
	}
	for i := range pa.addrs {
		if pa.addrs[i] != pb.addrs[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestInjectorSeedsDiffer(t *testing.T) {
	prof, _ := ByName("lu")
	a := NewInjector(3, prof, 1, &recorderPort{}, 2, 0, 500)
	b := NewInjector(3, prof, 2, &recorderPort{}, 2, 0, 500)
	drive(a, 20000)
	drive(b, 20000)
	pa, pb := a.port.(*recorderPort), b.port.(*recorderPort)
	same := 0
	n := min(len(pa.addrs), len(pb.addrs))
	for i := 0; i < n; i++ {
		if pa.addrs[i] == pb.addrs[i] {
			same++
		}
	}
	if n > 0 && same > n/2 {
		t.Fatalf("different seeds produced %d/%d identical addresses", same, n)
	}
}

func TestInjectorRespectsOutstandingCap(t *testing.T) {
	prof, _ := ByName("radix")
	var inj *Injector
	port := &recorderPort{}
	inj = NewInjector(0, prof, 7, port, 2, 0, 100)
	// Never complete: at most 2 issues.
	for c := uint64(0); c < 5000; c++ {
		inj.Evaluate(c)
		inj.Commit(c)
	}
	if len(port.addrs) != 2 {
		t.Fatalf("issued %d with cap 2 and no completions", len(port.addrs))
	}
}

func TestInjectorWarmupExcludedFromStats(t *testing.T) {
	prof, _ := ByName("fft")
	inj := NewInjector(0, prof, 7, &recorderPort{}, 2, 50, 100)
	drive(inj, 200000)
	if !inj.Done() {
		t.Fatal("injector did not finish")
	}
	if inj.Completed != 150 {
		t.Fatalf("completed = %d, want 150 (warmup+work)", inj.Completed)
	}
	if inj.ServiceLatency.Count != 100 {
		t.Fatalf("measured %d accesses, want 100 (warmup excluded)", inj.ServiceLatency.Count)
	}
}

func TestAddressMixMatchesProfile(t *testing.T) {
	prof, _ := ByName("canneal")
	port := &recorderPort{}
	inj := NewInjector(2, prof, 11, port, 4, 0, 20000)
	drive(inj, 3_000_000)
	if len(port.addrs) < 10000 {
		t.Fatalf("only %d accesses issued", len(port.addrs))
	}
	var shared, private, cold int
	for _, a := range port.addrs {
		switch {
		case a >= coldBase:
			cold++
		case a >= privateBase:
			private++
		default:
			shared++
		}
	}
	total := float64(len(port.addrs))
	sharedFrac := float64(shared) / total
	// Reuse draws re-sample history, keeping region proportions roughly
	// stable; allow a generous tolerance.
	if sharedFrac < prof.SharedFrac-0.15 || sharedFrac > prof.SharedFrac+0.15 {
		t.Fatalf("shared fraction %.2f deviates from profile %.2f", sharedFrac, prof.SharedFrac)
	}
	writeFrac := float64(port.writes) / total
	if writeFrac < prof.WriteFrac-0.05 || writeFrac > prof.WriteFrac+0.25 {
		t.Fatalf("write fraction %.2f deviates from profile %.2f", writeFrac, prof.WriteFrac)
	}
	if cold == 0 {
		t.Fatal("cold stream never sampled")
	}
}

func TestReuseCreatesLocality(t *testing.T) {
	prof, _ := ByName("blackscholes") // ReuseProb 0.8
	port := &recorderPort{}
	inj := NewInjector(1, prof, 5, port, 4, 0, 5000)
	drive(inj, 2_000_000)
	seen := map[uint64]bool{}
	repeats := 0
	for _, a := range port.addrs {
		if seen[a] {
			repeats++
		}
		seen[a] = true
	}
	frac := float64(repeats) / float64(len(port.addrs))
	if frac < 0.5 {
		t.Fatalf("repeat fraction %.2f too low for ReuseProb %.2f", frac, prof.ReuseProb)
	}
}

func TestBreakdownAccountingFlows(t *testing.T) {
	prof, _ := ByName("lu")
	inj := NewInjector(0, prof, 3, &recorderPort{}, 2, 0, 10)
	inj.outstanding = 1
	inj.Issued = 1
	var bd1 [stats.NumBreakdownComponents]uint64
	bd1[stats.NetBcastReq] = 30
	inj.OnComplete(1, false, 0, 80, false, true, &bd1)
	if inj.CacheServed.Count() != 1 {
		t.Fatal("cache-served breakdown not recorded")
	}
	inj.outstanding = 1
	var bd2 [stats.NumBreakdownComponents]uint64
	bd2[stats.DirAccess] = 100
	inj.OnComplete(2, false, 0, 150, false, false, &bd2)
	if inj.MemServed.Count() != 1 {
		t.Fatal("memory-served breakdown not recorded")
	}
}

// TestInjectorHistoryDoesNotAllocate checks that filling a fresh injector's
// reuse history allocates nothing. testing.AllocsPerRun would fill the
// history in its warm-up call, so the count comes from the heap statistics
// around the first historyDepth addresses; the fewest over three fresh
// injectors discounts a stray allocation elsewhere in the process.
func TestInjectorHistoryDoesNotAllocate(t *testing.T) {
	prof, _ := ByName("fft")
	fewest := ^uint64(0)
	for try := 0; try < 3; try++ {
		in := NewInjector(0, prof, 1, &recorderPort{}, 2, 0, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < historyDepth; i++ {
			in.remember(uint64(i))
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n < fewest {
			fewest = n
		}
		if len(in.history) != historyDepth || in.history[historyDepth-1] != historyDepth-1 {
			t.Fatalf("history holds %d addresses, last %d; want %d ending in %d",
				len(in.history), in.history[len(in.history)-1], historyDepth, historyDepth-1)
		}
	}
	if fewest != 0 {
		t.Fatalf("remembering %d addresses allocated %d objects, want 0", historyDepth, fewest)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
