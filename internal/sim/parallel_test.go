package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// forceProcs pins GOMAXPROCS for the duration of a test so both execution
// modes for workers > 1 — the serial fallback on a single-proc host, the
// concurrent pool otherwise — are exercised regardless of the machine the
// tests run on. The kernel samples GOMAXPROCS when it rebuilds its units, so
// the mode sticks even after restore.
func forceProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// buildChain wires n stage components into a committed-state pipeline and
// registers them in the order given by perm (identity when nil).
func buildChain(n int, perm []int, workers int) (*Kernel, []*stage) {
	stages := make([]*stage, n)
	for i := range stages {
		stages[i] = &stage{}
		if i > 0 {
			stages[i].left = stages[i-1]
		}
	}
	stages[0].value = 7
	stages[0].pending = 7
	k := NewKernel()
	for i := 0; i < n; i++ {
		idx := i
		if perm != nil {
			idx = perm[i]
		}
		k.Register(stages[idx])
	}
	k.SetWorkers(workers)
	return k, stages
}

func chainValues(stages []*stage) []int {
	vals := make([]int, len(stages))
	for i, s := range stages {
		vals[i] = s.value
	}
	return vals
}

// TestKernelParallelMatchesSerial pins the core contract: the same component
// graph produces identical state serial and at every worker count. On a host
// that cannot run two goroutines at once, workers > 1 falls back to the
// serial loop: no pool, no worker goroutines, the same state.
func TestKernelParallelMatchesSerial(t *testing.T) {
	const n, cycles = 64, 40
	kRef, ref := buildChain(n, nil, 1)
	kRef.Run(cycles)
	match := func(t *testing.T, workers int, stages []*stage) {
		t.Helper()
		want, got := chainValues(ref), chainValues(stages)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d stage %d: got %d want %d", workers, i, got[i], want[i])
			}
		}
	}
	t.Run("serial-fallback", func(t *testing.T) {
		forceProcs(t, 1)
		k, stages := buildChain(n, nil, 4)
		g0 := runtime.NumGoroutine()
		k.Step()
		if m := k.ExecMode(); m != "serial" {
			t.Fatalf("ExecMode() = %q at GOMAXPROCS 1, want serial", m)
		}
		if g := runtime.NumGoroutine(); g > g0 {
			t.Fatalf("first Step grew the goroutine count from %d to %d at GOMAXPROCS 1", g0, g)
		}
		k.Run(cycles - 1)
		match(t, 4, stages)
	})
	t.Run("concurrent", func(t *testing.T) {
		forceProcs(t, 4)
		for _, workers := range []int{2, 3, 8} {
			k, stages := buildChain(n, nil, workers)
			k.Run(cycles)
			match(t, workers, stages)
		}
	})
}

// TestKernelParallelShuffledOrder locks in registration-order independence
// under parallel execution: a deterministically shuffled registration order
// must not change any component's final state.
func TestKernelParallelShuffledOrder(t *testing.T) {
	forceProcs(t, 4)
	const n, cycles = 64, 40
	kRef, ref := buildChain(n, nil, 1)
	kRef.Run(cycles)
	rng := NewRNG(99)
	for trial := 0; trial < 5; trial++ {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		k, stages := buildChain(n, perm, 4)
		k.Run(cycles)
		want, got := chainValues(ref), chainValues(stages)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d stage %d: got %d want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// ordered records the order its unit's members evaluate in, through a log
// shared by the whole group — legal exactly because RegisterGroup keeps the
// group on one worker.
type ordered struct {
	id  int
	log *[]int
}

func (o *ordered) Evaluate(cycle uint64) { *o.log = append(*o.log, o.id) }
func (o *ordered) Commit(cycle uint64)   {}

// TestRegisterGroupPreservesOrder verifies that components sharing a group
// key execute in registration order on a single worker.
func TestRegisterGroupPreservesOrder(t *testing.T) {
	forceProcs(t, 4)
	k := NewKernel()
	logs := make([][]int, 4)
	for g := 0; g < 4; g++ {
		for i := 0; i < 3; i++ {
			k.RegisterGroup(g, &ordered{id: g*10 + i, log: &logs[g]})
		}
	}
	k.SetWorkers(4)
	k.Run(2)
	for g, log := range logs {
		want := []int{g * 10, g*10 + 1, g*10 + 2, g * 10, g*10 + 1, g*10 + 2}
		if len(log) != len(want) {
			t.Fatalf("group %d log %v, want %v", g, log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("group %d log %v, want %v", g, log, want)
			}
		}
	}
}

// TestKernelStepRestartsPool checks that driving Step directly works after a
// Run (workers stay warm across calls now), and that late registration
// reshards.
func TestKernelStepRestartsPool(t *testing.T) {
	forceProcs(t, 4)
	k := NewKernel()
	counters := make([]*counter, 16)
	for i := range counters {
		counters[i] = &counter{}
		k.Register(counters[i])
	}
	k.SetWorkers(4)
	k.Run(3) // workers stay warm on return
	late := &counter{}
	k.Register(late)
	for i := 0; i < 2; i++ {
		k.Step()
	}
	k.StopWorkers()
	if counters[0].value != 5 || late.value != 2 {
		t.Fatalf("values = %d, %d; want 5, 2", counters[0].value, late.value)
	}
	if k.Cycle() != 5 {
		t.Fatalf("cycle = %d, want 5", k.Cycle())
	}
	if k.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", k.Workers())
	}
}

// spinComp burns a deterministic amount of CPU per evaluate proportional to
// weight, counts committed cycles, and advertises a static cost seed that is
// deliberately allowed to lie — the profiling rebalance must correct it.
type spinComp struct {
	weight int
	seed   int
	sink   uint64
	value  int
}

func (c *spinComp) Evaluate(cycle uint64) {
	h := c.sink + cycle
	for i := 0; i < c.weight*200; i++ {
		h = h*0x9e3779b97f4a7c15 + 1
		h ^= h >> 29
	}
	c.sink = h
}
func (c *spinComp) Commit(cycle uint64) { c.value++ }
func (c *spinComp) PhaseCost() int      { return c.seed }

// TestShardRebalanceUnderReshard drives the cost-balanced sharder end to end:
// a unit whose static seed wildly understates its measured cost must be
// migrated off its overloaded shard by a profiling rebalance, and a mid-run
// registration — which tears the pool down and rebuilds it from static seeds
// — must leave every component's cycle count exact and balancing alive.
func TestShardRebalanceUnderReshard(t *testing.T) {
	forceProcs(t, 4)
	k := NewKernel()
	var comps []*spinComp
	heavy := &spinComp{weight: 50, seed: 1} // lies: claims to cost the same as the rest
	comps = append(comps, heavy)
	k.Register(heavy)
	for i := 0; i < 7; i++ {
		c := &spinComp{weight: 1, seed: 1}
		comps = append(comps, c)
		k.Register(c)
	}
	k.SetWorkers(2)
	const first = rebalanceEvery + sampleEvery + 2
	k.Run(first)
	reb, mig := k.BalanceStats()
	if reb < 2 { // 1 is the initial pack; >= 2 means a measured repack fired
		t.Fatalf("rebalances = %d, want >= 2 (no measured rebalance fired)", reb)
	}
	if mig == 0 {
		t.Fatal("rebalance fired but migrated no units")
	}
	late := &spinComp{weight: 1, seed: 1}
	comps = append(comps, late)
	k.Register(late) // reshard: the pool is rebuilt from scratch
	const second = rebalanceEvery + sampleEvery + 2
	k.Run(second)
	if reb2, _ := k.BalanceStats(); reb2 < 2 {
		t.Fatalf("post-reshard rebalances = %d, want >= 2", reb2)
	}
	for i, c := range comps {
		want := first + second
		if c == late {
			want = second
		}
		if c.value != want {
			t.Fatalf("comp %d committed %d cycles, want %d", i, c.value, want)
		}
	}
	k.StopWorkers()
}

// TestInitialPackBalancesSeeds pins the pool's first pack: before any
// profiling cycle it packs the static PhaseCost seeds longest-processing-
// time-first, so one heavy unit gets a shard to itself and the light ones
// fill the other to the same load.
func TestInitialPackBalancesSeeds(t *testing.T) {
	forceProcs(t, 4)
	k := NewKernel()
	for _, seed := range []int{1, 1, 1, 6, 1, 1, 1} {
		k.Register(&spinComp{seed: seed})
	}
	k.SetWorkers(2)
	k.Step()
	defer k.StopWorkers()
	p := k.pool
	if p == nil {
		t.Fatal("workers=2 with 7 units built no pool")
	}
	for w, shard := range p.assign {
		load := 0.0
		for _, ui := range shard {
			load += p.units[ui].cost
		}
		if load != 6 {
			t.Errorf("shard %d holds seeded cost %v (units %v), want 6", w, load, shard)
		}
	}
}

// benchComp is a synthetic component with a realistic per-cycle cost: it
// mixes its private state and reads a few neighbours' committed outputs.
type benchComp struct {
	state   [16]uint64
	peers   []*benchComp
	pending uint64
	out     uint64
}

func (c *benchComp) Evaluate(cycle uint64) {
	h := cycle
	for i := range c.state {
		h = (h ^ c.state[i]) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	for _, p := range c.peers {
		h ^= p.out
	}
	c.pending = h
}

func (c *benchComp) Commit(cycle uint64) {
	c.out = c.pending
	c.state[cycle%uint64(len(c.state))] = c.out
}

// BenchmarkKernelThroughput measures kernel stepping speed over a 512-node
// synthetic component graph at 1, 2 and NumCPU workers, reporting cycles/sec
// and components·cycles/sec.
func BenchmarkKernelThroughput(b *testing.B) {
	const n = 512
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			comps := make([]*benchComp, n)
			for i := range comps {
				comps[i] = &benchComp{state: [16]uint64{uint64(i)}}
			}
			k := NewKernel()
			for i, c := range comps {
				c.peers = []*benchComp{comps[(i+1)%n], comps[(i+n-1)%n]}
				k.Register(c)
			}
			k.SetWorkers(workers)
			b.ResetTimer()
			k.Run(uint64(b.N))
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "cycles/s")
				b.ReportMetric(float64(b.N)*n/secs, "comp·cycles/s")
			}
		})
	}
}
