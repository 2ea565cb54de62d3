package sim

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"scorpio/internal/obs/perfmon"
)

// Cost-balancing cadence. Every sampleEvery-th cycle each worker times its
// units individually (two clock reads per unit, so the profiling overhead is
// amortized to well under a percent); every rebalanceEvery-th cycle the
// driver folds those samples into the units' EWMA costs and repacks the
// shards if they have drifted apart. rebalanceEvery must be a multiple of
// sampleEvery so a rebalance always sees fresh samples.
const (
	sampleEvery    = 256
	rebalanceEvery = 1024
	// ewmaOld is the weight of the existing cost estimate when folding in a
	// new measurement window.
	ewmaOld = 0.5
	// imbalanceTrigger repacks when the heaviest shard exceeds the mean
	// shard load by this factor. High enough that measurement noise does not
	// cause churn, low enough that one heavy router cannot serialize a
	// cycle for long.
	imbalanceTrigger = 1.15
	// yieldSpins bounds a barrier waiter's yield loop before it parks.
	yieldSpins = 128
)

// participant is one executor's parking slot: the driving goroutine is
// participant 0, worker goroutines are 1..nw-1. parked+wake implement a
// futex-style sleep: a waiter that exhausts its yield budget publishes
// parked=true and blocks on wake; a waker transfers exactly one token per
// successful parked CAS, so tokens are never lost or duplicated.
type participant struct {
	parked atomic.Bool
	wake   chan struct{}
	_      [56]byte // keep hot flags off each other's cache line
}

// phasePool executes cycles across persistent workers with one wakeup per
// cycle. The driver publishes the cycle and bumps the epoch counter; every
// participant (driver included) evaluates its shard, arrives at the
// evaluate barrier, commits its shard, and arrives at the cycle barrier.
// Both barriers are monotone atomic counters — generation g is complete
// when a counter reaches g*nw — so they are never reset and need no
// coordination beyond the counter itself. Waiters yield, then park; the
// last arriver wakes anyone parked.
type phasePool struct {
	units  []unit
	nw     int
	assign [][]int       // per participant: owned unit indices
	flat   [][]Component // per participant: owned components, flattened for the non-profiling hot loop
	parts  []*participant

	gen    uint64 // driver-only generation counter
	cycle  uint64 // published before the epoch store, read after its load
	sample bool   // this cycle is a profiling cycle

	epoch   atomic.Uint64 // workers run cycle g once epoch >= g
	evalN   atomic.Uint64 // arrivals at the evaluate barrier, monotone
	doneN   atomic.Uint64 // arrivals at the end-of-cycle barrier, monotone
	stopped atomic.Bool

	// Rebalancing state (driver-only between cycles). The two counters are
	// atomics so BalanceStats may read them mid-run from any goroutine;
	// writes stay driver-only.
	load       []float64
	order      []int
	rebalances atomic.Uint64
	migrations atomic.Uint64
	cleanup    runtime.Cleanup

	// Self-observability (nil/zero when detached): the monitor, its sampling
	// stride, and the per-participant slots resolved once at pool build so
	// sampled cycles never chase pointers through the kernel.
	pm       *perfmon.Mon
	pmStride uint64
	pmw      []*perfmon.Worker
}

// newPhasePool builds the pool, packs the initial shards by component count
// (see repack), and launches nw-1 worker goroutines (the driver is
// participant 0). A non-nil pm attaches sampled self-observability at the
// given stride.
func newPhasePool(units []unit, nw int, pm *perfmon.Mon, stride uint64) *phasePool {
	p := &phasePool{
		units:  units,
		nw:     nw,
		assign: make([][]int, nw),
		flat:   make([][]Component, nw),
		parts:  make([]*participant, nw),
		load:   make([]float64, nw),
		order:  make([]int, len(units)),
	}
	if pm != nil {
		p.pm, p.pmStride = pm, stride
		pm.EnsureWorkers(nw)
		p.pmw = make([]*perfmon.Worker, nw)
		for i := range p.pmw {
			p.pmw[i] = pm.Worker(i)
		}
	}
	ncomps := 0
	for i := range units {
		ncomps += len(units[i].comps)
	}
	for i := range p.assign {
		// Full capacity up front: rebalancing must never allocate, even if
		// every unit lands on one shard.
		p.assign[i] = make([]int, 0, len(units))
		p.flat[i] = make([]Component, 0, ncomps)
	}
	for i := range p.parts {
		p.parts[i] = &participant{wake: make(chan struct{}, 1)}
	}
	for i := range p.units {
		p.units[i].owner = -1
	}
	p.repack()
	for i := 1; i < nw; i++ {
		go p.workerLoop(i)
	}
	return p
}

// step runs one full cycle (evaluate, barrier, commit, barrier) and returns
// with every shard committed. Driver-only. due marks a perfmon-sampled
// cycle: the kernel computes the predicate from the same generation counter
// the workers see, so every participant times the same cycles.
func (p *phasePool) step(cyc uint64, due bool) {
	p.gen++
	g := p.gen
	p.cycle = cyc
	p.sample = cyc%sampleEvery == 0
	if p.sample {
		// Parked units are sampled at zero cost so their EWMA decays and the
		// shard balance reflects active work only.
		for i := range p.units {
			if !p.units[i].active {
				p.units[i].sampleCnt++
			}
		}
	}
	p.epoch.Store(g)
	p.wakeOthers(0)
	var w *perfmon.Worker
	var t0 time.Time
	if due {
		w = p.pmw[0]
	}
	p.runCycle(0, g, w)
	if w != nil {
		t0 = time.Now()
	}
	park := p.wait(&p.doneN, g*uint64(p.nw), 0)
	if w != nil {
		chargeWait(w, t0, park)
	}
	if cyc%rebalanceEvery == rebalanceEvery-1 {
		p.maybeRebalance()
	}
}

// workerLoop is the persistent body of participants 1..nw-1. On sampled
// generations (the same g%stride predicate the driver uses) the epoch wait
// and the cycle's phases are timed into the participant's monitor slot.
func (p *phasePool) workerLoop(self int) {
	for g := uint64(1); ; g++ {
		var w *perfmon.Worker
		var t0 time.Time
		if p.pmStride != 0 && g%p.pmStride == 0 {
			w = p.pmw[self]
			t0 = time.Now()
		}
		park := p.wait(&p.epoch, g, self)
		if p.stopped.Load() {
			return
		}
		if w != nil {
			chargeWait(w, t0, park)
		}
		p.runCycle(self, g, w)
	}
}

// runCycle executes one participant's share of generation g: evaluate own
// units, barrier, commit own units, arrive. Workers fall out to wait for the
// next epoch; the driver's matching wait happens in step. A non-nil w marks
// a perfmon-sampled cycle: the evaluate phase, the evaluate barrier and the
// commit phase are timed into it, and epoch leadership (arriving last at the
// evaluate barrier and waking the others) is counted.
func (p *phasePool) runCycle(self int, g uint64, w *perfmon.Worker) {
	cyc := p.cycle
	target := g * uint64(p.nw)
	var t0 time.Time
	if w != nil {
		t0 = time.Now()
	}
	if p.sample {
		p.profileShard(self, cyc, false)
	} else {
		for _, c := range p.flat[self] {
			c.Evaluate(cyc)
		}
	}
	if w != nil {
		t1 := time.Now()
		w.EvalNs.Add(int64(t1.Sub(t0)))
		t0 = t1
	}
	if p.evalN.Add(1) == target {
		p.wakeOthers(self)
		if w != nil {
			// The leader's wake is a futex syscall per parked peer — real
			// barrier cost, charged to spin so follower accounting still
			// sums to wall clock.
			w.Led.Add(1)
			chargeWait(w, t0, 0)
		}
	} else {
		park := p.wait(&p.evalN, target, self)
		if w != nil {
			w.Followed.Add(1)
			chargeWait(w, t0, park)
		}
	}
	if w != nil {
		t0 = time.Now()
	}
	if p.sample {
		p.profileShard(self, cyc, true)
	} else {
		for _, c := range p.flat[self] {
			c.Commit(cyc)
		}
	}
	if w != nil {
		t1 := time.Now()
		w.CommitNs.Add(int64(t1.Sub(t0)))
		w.Sampled.Add(1)
		t0 = t1
	}
	if p.doneN.Add(1) == target {
		p.wakeOthers(self)
		if w != nil {
			chargeWait(w, t0, 0)
		}
	}
}

// profileShard runs one phase (the commit phase when commit is set) of
// participant self's active units on a profiling cycle, timing each unit
// into its sample; the commit phase closes the unit's sample.
func (p *phasePool) profileShard(self int, cyc uint64, commit bool) {
	for _, ui := range p.assign[self] {
		u := &p.units[ui]
		if !u.active {
			continue
		}
		t0 := time.Now()
		if commit {
			for _, c := range u.comps {
				c.Commit(cyc)
			}
			u.sampleCnt++
		} else {
			for _, c := range u.comps {
				c.Evaluate(cyc)
			}
		}
		u.sampleNs += float64(time.Since(t0))
	}
}

// wait blocks participant self until ctr reaches target: bounded
// yield-spins, then a futex-style park. Spurious wakeups (a stale token from
// an earlier barrier) simply re-enter the loop. It returns the nanoseconds
// spent blocked on the wake channel, so a sampled wait splits into spin
// (yield) and park (futex-sleep) time; a wait that never parks reads no
// clock.
func (p *phasePool) wait(ctr *atomic.Uint64, target uint64, self int) int64 {
	var park int64
	w := p.parts[self]
	for {
		for n := 0; n < yieldSpins; n++ {
			if ctr.Load() >= target {
				return park
			}
			runtime.Gosched()
		}
		w.parked.Store(true)
		if ctr.Load() >= target {
			if w.parked.CompareAndSwap(true, false) {
				return park
			}
			// A waker claimed us between the store and the CAS; its token
			// is in flight and must be consumed before the next park.
		}
		t0 := time.Now()
		<-w.wake
		park += int64(time.Since(t0))
		if ctr.Load() >= target {
			return park
		}
	}
}

// chargeWait books a sampled barrier span that began at t0 into w: the park
// nanoseconds spent descheduled to park, the rest to spin.
func chargeWait(w *perfmon.Worker, t0 time.Time, park int64) {
	w.SpinNs.Add(int64(time.Since(t0)) - park)
	w.ParkNs.Add(park)
}

// wakeOthers unparks every parked participant except self. The CAS makes
// each in-flight token exclusive: only the goroutine that flips parked
// true→false may send, and the parked participant consumes exactly one.
func (p *phasePool) wakeOthers(self int) {
	for i, w := range p.parts {
		if i == self {
			continue
		}
		if w.parked.CompareAndSwap(true, false) {
			w.wake <- struct{}{}
		}
	}
}

// stop terminates the worker goroutines. Idempotent; safe from the driver
// between cycles and from the kernel's GC cleanup (which only fires once no
// goroutine can be mid-cycle).
func (p *phasePool) stop() {
	if !p.stopped.CompareAndSwap(false, true) {
		return
	}
	p.cleanup.Stop()
	p.epoch.Add(1)
	p.wakeOthers(0)
}

// maybeRebalance folds the profiling samples into the EWMA costs and repacks
// the shards when the heaviest one exceeds the mean by imbalanceTrigger.
// Driver-only, between cycles; the epoch store publishes the new assignment
// to the workers. Allocation-free: every buffer was sized at pool start.
func (p *phasePool) maybeRebalance() {
	total := 0.0
	for i := range p.units {
		u := &p.units[i]
		if u.sampleCnt > 0 {
			s := u.sampleNs / float64(u.sampleCnt)
			if u.measured {
				u.cost = ewmaOld*u.cost + (1-ewmaOld)*s
			} else {
				// First real measurement replaces the component count
				// outright — the two are not in the same unit system.
				u.cost, u.measured = s, true
			}
			u.sampleNs, u.sampleCnt = 0, 0
		}
		total += u.cost
	}
	if total <= 0 {
		return
	}
	maxLoad := 0.0
	for w := 0; w < p.nw; w++ {
		l := 0.0
		for _, ui := range p.assign[w] {
			l += p.units[ui].cost
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	mean := total / float64(p.nw)
	if maxLoad <= imbalanceTrigger*mean {
		return
	}
	moved := p.repack()
	if p.pm != nil {
		// p.load holds the freshly-packed per-shard loads; the mean is
		// unchanged by repacking, so before/after imbalance share the scale.
		after := 0.0
		for w := 0; w < p.nw; w++ {
			if p.load[w] > after {
				after = p.load[w]
			}
		}
		p.pm.RecordRebalance(perfmon.RebalanceEvent{
			Cycle:           p.cycle,
			Migrations:      moved,
			ImbalanceBefore: maxLoad / mean,
			ImbalanceAfter:  after / mean,
		})
	}
}

// repack reassigns units to shards longest-processing-time-first: units in
// descending cost order, each onto the currently lightest shard. It packs
// the pool's first shards by component count and every rebalance from the
// measured EWMA costs. Ties break deterministically (stable sort, lowest
// shard index), though assignment never affects simulation results — phases
// are isolated by construction. Returns the number of units that changed
// shard.
func (p *phasePool) repack() uint64 {
	for i := range p.order {
		p.order[i] = i
	}
	slices.SortStableFunc(p.order, func(a, b int) int {
		return cmp.Compare(p.units[b].cost, p.units[a].cost)
	})
	for w := range p.assign {
		p.assign[w] = p.assign[w][:0]
		p.load[w] = 0
	}
	moved := uint64(0)
	for _, ui := range p.order {
		best := 0
		for w := 1; w < p.nw; w++ {
			if p.load[w] < p.load[best] {
				best = w
			}
		}
		p.assign[best] = append(p.assign[best], ui)
		p.load[best] += p.units[ui].cost
		if p.units[ui].owner != int32(best) {
			if p.units[ui].owner >= 0 {
				moved++
			}
			p.units[ui].owner = int32(best)
		}
	}
	p.rebuildActive()
	p.rebalances.Add(1)
	p.migrations.Add(moved)
	return moved
}

// rebuildActive refreshes the flat dispatch lists from the currently active
// units. Called by the driver between cycles whenever the active set or the
// shard assignment changes; allocation-free once the backing arrays have
// grown to the full component count.
func (p *phasePool) rebuildActive() {
	for w := range p.flat {
		p.flat[w] = p.flat[w][:0]
		for _, ui := range p.assign[w] {
			if u := &p.units[ui]; u.active {
				p.flat[w] = append(p.flat[w], u.comps...)
			}
		}
	}
}
