package sim

import (
	"testing"
)

// burster does burstLen cycles of work, sleeps gap cycles, and repeats. It
// self-schedules: while sleeping it is idle and names its next burst start,
// so the kernel can park it over the quiet span. The
// checksum mixes the cycle number so any missed or extra Evaluate changes
// the final state.
type burster struct {
	burstLen  uint64
	gap       uint64
	nextStart uint64

	sum   uint64
	pend  uint64
	now   uint64
	evals uint64
}

func (b *burster) Evaluate(cycle uint64) {
	b.now = cycle
	b.evals++
	b.pend = b.sum
	if cycle >= b.nextStart && cycle < b.nextStart+b.burstLen {
		b.pend = b.sum*6364136223846793005 + cycle + 1
	}
}

func (b *burster) Commit(cycle uint64) {
	b.sum = b.pend
	if cycle == b.nextStart+b.burstLen-1 {
		b.nextStart += b.burstLen + b.gap
	}
}

func (b *burster) Idle() bool { return b.now+1 < b.nextStart }

func (b *burster) NextEventCycle(cycle uint64) uint64 {
	if b.nextStart <= cycle {
		return cycle + 1
	}
	return b.nextStart
}

// buildBursters staggers n bursters so their bursts interleave sparsely,
// each woken by its own timed wake 997 cycles after its last burst.
func buildBursters(n int, workers int, skip bool) (*Kernel, []*burster) {
	k := NewKernel()
	bs := make([]*burster, n)
	for i := range bs {
		bs[i] = &burster{burstLen: 3, gap: 997, nextStart: uint64(i * 131)}
		k.Register(bs[i])
	}
	k.SetWorkers(workers)
	k.SetIdleSkip(skip)
	return k, bs
}

// TestParkingEquivalence is the activity engine's core contract on a
// bursty-idle workload: with parking and timed wakes the final state and
// cycle count are bit-identical to stepping every component every cycle —
// while executing far fewer Evaluates.
func TestParkingEquivalence(t *testing.T) {
	const n, cycles = 8, 20_000
	kRef, ref := buildBursters(n, 0, false)
	kRef.Run(cycles)
	kSkip, skip := buildBursters(n, 0, true)
	kSkip.Run(cycles)

	if kRef.Cycle() != kSkip.Cycle() {
		t.Fatalf("cycle count diverged: skip-off %d, skip-on %d", kRef.Cycle(), kSkip.Cycle())
	}
	var evalsRef, evalsSkip uint64
	for i := range ref {
		if ref[i].sum != skip[i].sum {
			t.Errorf("burster %d checksum diverged: skip-off %#x, skip-on %#x", i, ref[i].sum, skip[i].sum)
		}
		if ref[i].nextStart != skip[i].nextStart {
			t.Errorf("burster %d schedule diverged: skip-off %d, skip-on %d", i, ref[i].nextStart, skip[i].nextStart)
		}
		evalsRef += ref[i].evals
		evalsSkip += skip[i].evals
	}
	if evalsRef != n*cycles {
		t.Fatalf("skip-off ran %d evaluates, want %d", evalsRef, n*cycles)
	}
	// 3 work cycles per ~1000-cycle period plus demote-pass slack: the
	// activity engine must eliminate the overwhelming majority of steps.
	if evalsSkip*10 > evalsRef {
		t.Errorf("skip-on ran %d/%d evaluates; expected at least a 10x reduction", evalsSkip, evalsRef)
	}
	t.Logf("bursty-idle: %d evaluates without skip, %d with (%.1fx)", evalsRef, evalsSkip, float64(evalsRef)/float64(evalsSkip))
}

// TestParkingEquivalenceParallel repeats the contract under the phase pool:
// parking and timed wakes must compose with sharded execution.
func TestParkingEquivalenceParallel(t *testing.T) {
	forceProcs(t, 4)
	const n, cycles = 16, 20_000
	kRef, ref := buildBursters(n, 0, false)
	kRef.Run(cycles)
	kSkip, skip := buildBursters(n, 4, true)
	kSkip.Run(cycles)
	if kRef.Cycle() != kSkip.Cycle() {
		t.Fatalf("cycle count diverged: serial skip-off %d, parallel skip-on %d", kRef.Cycle(), kSkip.Cycle())
	}
	for i := range ref {
		if ref[i].sum != skip[i].sum {
			t.Errorf("burster %d checksum diverged: serial skip-off %#x, parallel skip-on %#x", i, ref[i].sum, skip[i].sum)
		}
	}
}

// TestObserverSeesEveryCycle pins the observer contract: an installed
// observer sees every single cycle exactly once, while idle units are still
// skipped, and the results stay identical.
func TestObserverSeesEveryCycle(t *testing.T) {
	const n, cycles = 4, 5_000
	kRef, ref := buildBursters(n, 0, false)
	kRef.Run(cycles)

	kObs, obs := buildBursters(n, 0, true)
	var seen uint64
	kObs.SetObserver(func(cycle uint64) {
		if cycle != seen {
			t.Fatalf("observer saw cycle %d, want %d (every cycle, in order)", cycle, seen)
		}
		seen++
	})
	kObs.Run(cycles)
	if seen != cycles {
		t.Fatalf("observer saw %d cycles, want %d", seen, cycles)
	}
	var evalsObs uint64
	for i := range ref {
		if ref[i].sum != obs[i].sum {
			t.Errorf("burster %d checksum diverged under observer: %#x vs %#x", i, ref[i].sum, obs[i].sum)
		}
		evalsObs += obs[i].evals
	}
	if evalsObs >= n*cycles {
		t.Errorf("observer must not disable idle skipping: %d evaluates, want < %d", evalsObs, n*cycles)
	}
}

// TestObserverLeavesScheduleUnchanged checks that watching a run does not
// change what the engine does: with and without a no-op observer, the same
// cycles are stepped and the same units park, wake and are polled, so a
// watched run's engine columns describe the schedule an unwatched run
// follows.
func TestObserverLeavesScheduleUnchanged(t *testing.T) {
	const n, cycles = 8, 20_000
	kPlain, _ := buildBursters(n, 0, true)
	kPlain.Run(cycles)
	kObs, _ := buildBursters(n, 0, true)
	kObs.SetObserver(func(uint64) {})
	kObs.Run(cycles)
	if plain, obs := kPlain.ActivityCounters(), kObs.ActivityCounters(); plain != obs {
		t.Fatalf("an observer changed the engine's schedule:\nplain    %+v\nobserved %+v", plain, obs)
	}
}

// mailbox is a committed-state channel from producer to consumer: the
// producer deposits at its commit and wakes the consumer for the next
// cycle; the consumer may be parked arbitrarily long in between.
type mailbox struct {
	val   uint64
	stamp uint64
	has   bool
}

type producer struct {
	burster
	box    *mailbox
	target *Activity
}

// Commit deposits at the last cycle of each burst, so the deposit schedule
// is exactly the burst schedule the embedded burster already advertises via
// Idle/NextEventCycle.
func (p *producer) Commit(cycle uint64) {
	deposit := cycle == p.nextStart+p.burstLen-1
	p.burster.Commit(cycle)
	if deposit {
		p.box.val, p.box.stamp, p.box.has = p.sum, cycle, true
		p.target.Wake(cycle+1, WakeOther)
	}
}

type consumer struct {
	box  *mailbox
	got  []uint64
	now  uint64
	pend bool
}

func (c *consumer) Evaluate(cycle uint64) {
	c.now = cycle
	c.pend = c.box.has
}

func (c *consumer) Commit(cycle uint64) {
	if c.pend {
		c.got = append(c.got, c.box.val)
		c.box.has = false
		c.pend = false
	}
}

// Idle re-checks the committed mailbox: a wake aimed at an already-active
// consumer is dropped by design, so the demote-time recheck is what keeps
// the edge-triggered protocol lossless.
func (c *consumer) Idle() bool { return !c.box.has }

func (c *consumer) NextEventCycle(cycle uint64) uint64 { return NoEvent }

// TestCrossUnitWakeDelivery pins the producer/consumer wake protocol: a
// parked consumer receives every committed deposit exactly once, identical
// to the skip-off schedule, across both serial and parallel kernels.
func TestCrossUnitWakeDelivery(t *testing.T) {
	build := func(workers int, skip bool) (*Kernel, *consumer) {
		k := NewKernel()
		box := &mailbox{}
		c := &consumer{box: box}
		p := &producer{burster: burster{burstLen: 2, gap: 610, nextStart: 0}, box: box}
		k.Register(p)
		p.target = k.Register(c)
		k.SetWorkers(workers)
		k.SetIdleSkip(skip)
		return k, c
	}
	kRef, ref := build(0, false)
	kRef.Run(10_000)
	if len(ref.got) == 0 {
		t.Fatal("degenerate reference: consumer received nothing")
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"parallel", 4}} {
		if mode.workers > 0 {
			forceProcs(t, 4)
		}
		k, c := build(mode.workers, true)
		k.Run(10_000)
		if len(c.got) != len(ref.got) {
			t.Fatalf("%s skip-on consumer received %d deposits, want %d", mode.name, len(c.got), len(ref.got))
			continue
		}
		for i := range ref.got {
			if c.got[i] != ref.got[i] {
				t.Fatalf("%s skip-on deposit %d = %#x, want %#x", mode.name, i, c.got[i], ref.got[i])
			}
		}
	}
}
