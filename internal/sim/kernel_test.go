package sim

import (
	"testing"
	"testing/quick"
)

// counter is a component that increments on commit only, verifying phase
// separation.
type counter struct {
	pending int
	value   int
}

func (c *counter) Evaluate(cycle uint64) { c.pending = c.value + 1 }
func (c *counter) Commit(cycle uint64)   { c.value = c.pending }

func TestKernelStepRunsBothPhases(t *testing.T) {
	k := NewKernel()
	c := &counter{}
	k.Register(c)
	k.Step()
	if c.value != 1 {
		t.Fatalf("value after one step = %d, want 1", c.value)
	}
	k.Run(9)
	if c.value != 10 {
		t.Fatalf("value after ten cycles = %d, want 10", c.value)
	}
	if k.Cycle() != 10 {
		t.Fatalf("Cycle() = %d, want 10", k.Cycle())
	}
}

// TestRebuildSerialActiveAllocatesNothing: building a serial kernel's units
// sizes its dispatch list to every component, so even the first refresh of
// the list, in a machine's first cycle, allocates nothing. Each call gets a
// kernel whose list was never filled, the warm-up call included.
func TestRebuildSerialActiveAllocatesNothing(t *testing.T) {
	const runs, comps = 5, 300
	fresh := make([]*Kernel, runs+1)
	for i := range fresh {
		k := NewKernel()
		for j := 0; j < comps; j++ {
			k.Register(&counter{})
		}
		if k.ensureEngine() != nil {
			t.Fatal("a one-worker kernel started a worker pool")
		}
		fresh[i] = k
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		fresh[next].rebuildSerialActive()
		next++
	})
	if allocs != 0 {
		t.Fatalf("the first dispatch-list refresh allocates %.1f times, want 0", allocs)
	}
	for _, k := range fresh {
		if len(k.serialAct) != comps {
			t.Fatalf("dispatch list holds %d components, want %d", len(k.serialAct), comps)
		}
	}
}

// chain components copy their left neighbour's committed value; with proper
// two-phase semantics a value propagates exactly one stage per cycle
// regardless of registration order.
type stage struct {
	left    *stage
	pending int
	value   int
}

func (s *stage) Evaluate(cycle uint64) {
	if s.left != nil {
		s.pending = s.left.value
	}
}
func (s *stage) Commit(cycle uint64) { s.value = s.pending }

func TestKernelOrderIndependence(t *testing.T) {
	build := func(reversed bool) []*stage {
		stages := make([]*stage, 5)
		for i := range stages {
			stages[i] = &stage{}
			if i > 0 {
				stages[i].left = stages[i-1]
			}
		}
		stages[0].value = 42
		stages[0].pending = 42
		k := NewKernel()
		if reversed {
			for i := len(stages) - 1; i >= 0; i-- {
				k.Register(stages[i])
			}
		} else {
			for _, s := range stages {
				k.Register(s)
			}
		}
		k.Run(4)
		return stages
	}
	fwd := build(false)
	rev := build(true)
	for i := range fwd {
		if fwd[i].value != rev[i].value {
			t.Fatalf("stage %d: forward=%d reversed=%d; tick order changed the result", i, fwd[i].value, rev[i].value)
		}
	}
	if fwd[4].value != 42 {
		t.Fatalf("value did not propagate: stage4=%d, want 42", fwd[4].value)
	}
}

func TestKernelObserver(t *testing.T) {
	k := NewKernel()
	c := &counter{}
	k.Register(c)
	var cycles []uint64
	var valueAtObserve []int
	k.SetObserver(func(cycle uint64) {
		cycles = append(cycles, cycle)
		valueAtObserve = append(valueAtObserve, c.value)
	})
	k.Run(3)
	if len(cycles) != 3 || cycles[0] != 0 || cycles[2] != 2 {
		t.Fatalf("observer cycles = %v, want [0 1 2]", cycles)
	}
	// The observer runs after commit: it must see the just-latched state.
	for i, v := range valueAtObserve {
		if v != i+1 {
			t.Fatalf("observer at cycle %d saw value %d, want %d (post-commit)", cycles[i], v, i+1)
		}
	}
	k.SetObserver(nil)
	k.Step()
	if len(cycles) != 3 {
		t.Fatal("removed observer still fired")
	}
}

func TestKernelObserverParallel(t *testing.T) {
	// The observer must fire once per step with committed state visible even
	// when the worker pool executes the phases.
	k := NewKernel()
	var comps []*counter
	for i := 0; i < 16; i++ {
		c := &counter{}
		comps = append(comps, c)
		k.Register(c)
	}
	k.SetWorkers(4)
	fired := 0
	k.SetObserver(func(cycle uint64) {
		fired++
		for _, c := range comps {
			if c.value != int(cycle)+1 {
				t.Fatalf("cycle %d: observer saw uncommitted value %d", cycle, c.value)
			}
		}
	})
	k.Run(5)
	if fired != 5 {
		t.Fatalf("observer fired %d times, want 5", fired)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	c := &counter{}
	k.Register(c)
	ok := k.RunUntil(func() bool { return c.value >= 5 }, 100)
	if !ok {
		t.Fatal("RunUntil should have satisfied the predicate")
	}
	if c.value != 5 {
		t.Fatalf("value = %d, want 5 (predicate checked before each step)", c.value)
	}
	ok = k.RunUntil(func() bool { return false }, 20)
	if ok {
		t.Fatal("RunUntil with always-false predicate must report false")
	}
	if k.Cycle() != 20 {
		t.Fatalf("cycle = %d, want 20 (limit)", k.Cycle())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(8)
	same := 0
	a2 := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(123)
	if err := quick.Check(func(raw uint16) bool {
		n := int(raw%100) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / n
	if mean < 0.47 || mean > 0.53 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) must be false")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) must be true")
		}
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(11)
	total := 0
	const n = 5000
	for i := 0; i < n; i++ {
		total += r.Geometric(0.25)
	}
	mean := float64(total) / n
	if mean < 3.5 || mean > 4.5 {
		t.Fatalf("Geometric(0.25) mean = %v, want ~4", mean)
	}
	if r.Geometric(1) != 1 {
		t.Fatal("Geometric(1) must be 1")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(42)
	f := r.Fork()
	if r.Uint64() == f.Uint64() {
		t.Fatal("forked stream should not mirror parent")
	}
}
