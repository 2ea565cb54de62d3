// Package sim provides the deterministic two-phase synchronous simulation
// kernel that every SCORPIO component runs on.
//
// A cycle has two phases. In the evaluate phase each component reads the
// registered (previous-cycle) outputs of its neighbours and computes its next
// state; in the commit phase every component latches that state. Because no
// component observes another component's *next* state during evaluation, the
// simulation result is independent of the order in which components are
// registered, which makes runs bit-for-bit reproducible.
//
// The same property makes the kernel parallelizable: SetWorkers(n) shards the
// component list over n persistent workers (the driving goroutine is worker 0)
// that run every Evaluate, barrier, then run every Commit. Components that
// call each other directly within a phase (a NIC delivering into its node's
// L2, say) must share a scheduling unit — register them under one key with
// RegisterGroup so the kernel never splits them across workers and their
// relative order inside the unit matches their registration order.
//
// Scheduling units are packed onto workers longest-processing-time-first
// (see pool.go): the first pack weighs each unit by its component count;
// after that every unit carries an EWMA of its observed per-cycle phase time,
// refreshed on periodic profiling cycles, and the pool repacks whenever the
// shards drift out of balance. Assignment never affects results — only which
// goroutine happens to execute a unit. A host that cannot run two goroutines
// at once (GOMAXPROCS < 2) gains nothing from shards but barrier context
// switches, so there the kernel steps serially whatever SetWorkers asked.
//
// Execution is activity-driven (see activity.go): a unit whose components all
// implement Idler is parked once every member reports Idle(), and only woken
// by an Activity.Wake from a producer or by its own NextEventCycle. Parked
// units cost nothing per cycle. Parking is driver-side and state-driven, so
// skip-on execution is bit-identical to skip-off at any worker count, and
// every cycle is stepped either way. SetIdleSkip(false) restores the
// always-step path.
package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"scorpio/internal/obs/perfmon"
)

// Component is a hardware block ticked once per cycle.
//
// Evaluate must only read other components' committed state and write the
// component's own pending state; Commit latches pending state so the next
// cycle can observe it.
type Component interface {
	// Evaluate computes the component's next state for the given cycle.
	Evaluate(cycle uint64)
	// Commit latches the state computed by Evaluate.
	Commit(cycle uint64)
}

// Idle-skip engine constants: the demotion pass that parks newly-idle units
// runs every demoteEvery cycles while units are parking or waking (lazy — an
// idle unit burns at most demoteEvery no-op cycles before parking), and backs
// off exponentially to demoteMax while passes find nothing to park, so at
// saturation the Idle() polling cost fades to a fraction of a percent; any
// wake resets the cadence.
const (
	demoteEvery = 4
	demoteMax   = 32
)

// unit is one scheduling unit: components that must execute on the same
// worker, in order, plus the activity engine's and the sharder's bookkeeping.
// Fields are ordered wide-to-narrow (slices/words, then int32s, then bools)
// so the compiler inserts no alignment holes; cmd/layoutcheck polices the
// same rule for exported structs, and TestUnitPacksTight pins this one.
type unit struct {
	comps []Component
	// act is the unit's wake mailbox, stable across unit rebuilds.
	act *Activity
	// idlers and nexters are the pre-asserted views used by the demotion
	// pass; only units whose components all provide them ever park.
	idlers  []Idler
	nexters []NextEventer
	// cost is the balancing weight: the component count until the first
	// profiling cycle, then an EWMA of measured phase nanoseconds.
	cost float64
	// sampleNs/sampleCnt accumulate profiling-cycle measurements; written
	// only by the owning worker mid-cycle (or the driver, for parked units),
	// folded and zeroed by the driver between cycles (the commit barrier
	// orders the two).
	sampleNs  float64
	sampleCnt uint32
	owner     int32 // current shard, for migration accounting
	// canIdle marks a unit whose components all implement Idler; only such
	// units ever park.
	canIdle bool
	// active mirrors act.state==0 for the driver and, via the pool's epoch
	// publication, the workers.
	active   bool
	measured bool // cost holds measured time, not the component count
}

// Kernel drives a set of components with a shared synchronous clock.
type Kernel struct {
	components []Component
	groupKeys  []int // per-component group key; negative = singleton unit
	acts       []*Activity
	groupActs  []*Activity // per group key; nil = no unit yet
	// actBlock is the unused rest of the block Register and RegisterGroup
	// hand mailboxes out of: a block never moves, so each mailbox keeps its
	// address for the kernel's life.
	actBlock []Activity
	nextAuto int
	cycle    uint64

	workers int
	dirty   bool // units stale: registration or worker count changed
	noShard bool // last unit build found too few units or CPUs to shard
	pool    *phasePool

	// Activity engine state (driver-only, except wakeSignal).
	idleSkip   bool
	units      []unit
	nActive    int
	actDirty   bool // active set changed; flat dispatch lists stale
	wakeSignal atomic.Uint64
	lastSignal uint64
	// nextDue is the parked units' earliest wake cycle as of the last
	// boundary scan (NoEvent = none), lowered by the demote pass as it
	// parks; a Wake since that scan shows in wakeSignal instead.
	nextDue    uint64
	serialAct  []Component // serial-mode flat active dispatch list
	demoteNext uint64      // cycle after which the next demote pass runs
	demoteGap  uint64      // current demote interval (adaptive backoff)

	// Self-observability state (see internal/obs/perfmon). The engine's
	// event census in engineStats is always on — its plain fields are
	// driver-written single increments — while the sampled phase timing only
	// runs with a monitor attached (pm != nil). wakeEdges is the shared
	// per-edge wake census every Activity points into.
	pm          *perfmon.Mon
	pmStride    uint64
	pmCycle0    uint64 // the cycle at which the monitor attached
	engineStats perfmon.ActivityCounters
	wakeEdges   [perfmon.NumWakeEdges]atomic.Uint64

	observer func(cycle uint64)
}

// NewKernel returns an empty kernel at cycle 0 with idle-skip enabled.
func NewKernel() *Kernel {
	return &Kernel{nextAuto: -1, idleSkip: true}
}

// actBlockLen is the number of wake mailboxes allocated at once: with the
// 8-byte header the allocator puts in front of an object that holds
// pointers, one page. A block therefore starts 8 bytes past a cache-line
// boundary, and each mailbox's live words stay within one line while its
// pad takes the spill. A 6×6 machine's 73 units take one block.
const actBlockLen = 127

// newActivity hands out the next wake mailbox of the current block.
func (k *Kernel) newActivity() *Activity {
	if len(k.actBlock) == 0 {
		k.actBlock = make([]Activity, actBlockLen)
	}
	a := &k.actBlock[0]
	k.actBlock = k.actBlock[1:]
	a.sig, a.edges = &k.wakeSignal, &k.wakeEdges
	return a
}

// Register adds a component to the kernel's tick list as its own scheduling
// unit and returns the unit's wake mailbox (stable for the kernel's life).
func (k *Kernel) Register(c Component) *Activity {
	a := k.newActivity()
	k.components = append(k.components, c)
	k.groupKeys = append(k.groupKeys, k.nextAuto)
	k.acts = append(k.acts, a)
	k.nextAuto--
	k.dirty = true
	return a
}

// RegisterGroup adds a component to the scheduling unit identified by key
// (key >= 0; keys index a slice, so machines use their node numbers). All
// components sharing a key execute on the same worker, in registration
// order, so they may call each other directly during a phase. Returns the
// unit's shared wake mailbox.
func (k *Kernel) RegisterGroup(key int, c Component) *Activity {
	if key < 0 {
		panic("sim: RegisterGroup key must be non-negative")
	}
	for len(k.groupActs) <= key {
		k.groupActs = append(k.groupActs, nil)
	}
	a := k.groupActs[key]
	if a == nil {
		a = k.newActivity()
		k.groupActs[key] = a
	}
	k.components = append(k.components, c)
	k.groupKeys = append(k.groupKeys, key)
	k.acts = append(k.acts, a)
	k.dirty = true
	return a
}

// SetWorkers selects the execution mode: n <= 1 runs every phase on the
// calling goroutine (the default), n > 1 shards the scheduling units over n
// persistent workers (the driving goroutine is one of them). Results are
// identical either way.
func (k *Kernel) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n == k.workers {
		return
	}
	k.workers = n
	k.dirty = true
}

// Workers reports the configured worker count (1 = serial).
func (k *Kernel) Workers() int {
	if k.workers < 1 {
		return 1
	}
	return k.workers
}

// SetIdleSkip enables or disables activity-driven execution (enabled by
// default). Disabled, every unit is ticked every cycle — the escape hatch for
// bisecting against the always-step path. Results are bit-identical either
// way.
func (k *Kernel) SetIdleSkip(on bool) {
	if on == k.idleSkip {
		return
	}
	k.idleSkip = on
	k.dirty = true
}

// IdleSkip reports whether activity-driven execution is enabled.
func (k *Kernel) IdleSkip() bool { return k.idleSkip }

// Cycle reports the number of cycles fully executed so far.
func (k *Kernel) Cycle() uint64 {
	return k.cycle
}

// SetObserver installs a function called after every Step's commit phase
// with the cycle just executed. It runs on the driving goroutine after all
// workers have barriered, so it may freely read committed component state —
// the observability layer's sampling and watchdog point. Pass nil to remove
// it; when nil the per-step cost is a single branch. An observer changes
// nothing in the engine's schedule: units park and wake on the same cycles
// with or without one.
func (k *Kernel) SetObserver(fn func(cycle uint64)) {
	k.observer = fn
}

// Step executes exactly one cycle: all Evaluates, then all Commits — for
// every unit that is active this cycle.
func (k *Kernel) Step() {
	cyc := k.cycle
	p := k.ensureEngine()
	skip := k.idleSkip && len(k.units) > 0
	if skip {
		k.boundary(cyc)
	}
	// With a monitor attached, every pmStride-th cycle is sampled: the
	// driver stamps the full step span and each participant times its
	// phases. In parallel mode the predicate runs off the pool generation
	// so workers (who only see g) reach the same verdict independently.
	due := false
	var t0 time.Time
	if k.pm != nil {
		if p != nil {
			due = (p.gen+1)%k.pmStride == 0
		} else {
			due = (cyc+1)%k.pmStride == 0
		}
		if due {
			t0 = time.Now()
		}
	}
	if p != nil {
		if k.actDirty {
			p.rebuildActive()
			k.actDirty = false
		}
		p.step(cyc, due)
	} else {
		if k.actDirty {
			k.rebuildSerialActive()
			k.actDirty = false
		}
		k.stepList(cyc, due)
	}
	k.cycle++
	if k.observer != nil {
		k.observer(cyc)
	}
	if skip && cyc >= k.demoteNext {
		if k.demotePass(cyc) {
			k.demoteGap = demoteEvery
		} else if k.demoteGap < demoteMax {
			k.demoteGap *= 2
		}
		k.demoteNext = cyc + k.demoteGap
	}
	if due {
		// Stamped last so the span covers observer, demote and boundary work
		// — the report's "other" bucket is derived from it.
		k.pm.Worker(0).StepNs.Add(int64(time.Since(t0)))
	}
}

// stepList is the serial dispatch: every Evaluate, then every Commit, over
// the active units' components (all of them with idle-skip off, where no
// unit ever parks). On a perfmon-sampled cycle (due) the two phases are
// timed into participant 0's monitor slot.
func (k *Kernel) stepList(cyc uint64, due bool) {
	var t0 time.Time
	if due {
		t0 = time.Now()
	}
	for _, c := range k.serialAct {
		c.Evaluate(cyc)
	}
	var t1 time.Time
	if due {
		t1 = time.Now()
	}
	for _, c := range k.serialAct {
		c.Commit(cyc)
	}
	if due {
		w := k.pm.Worker(0)
		w.EvalNs.Add(int64(t1.Sub(t0)))
		w.CommitNs.Add(int64(time.Since(t1)))
		w.Sampled.Add(1)
	}
}

// Run executes n cycles: RunUntil with a condition that never holds.
func (k *Kernel) Run(n uint64) {
	k.RunUntil(never, k.cycle+n)
}

func never() bool { return false }

// RunUntil steps the kernel until done reports true or the cycle limit is
// reached, and reports whether done became true. Worker goroutines stay warm
// on return so repeated runs (sweeps, litmus sequences) never pay pool
// start/stop; they are released by StopWorkers, by the next reshard, or by a
// GC cleanup when the kernel itself becomes unreachable.
func (k *Kernel) RunUntil(done func() bool, limit uint64) bool {
	for k.cycle < limit {
		if done() {
			return true
		}
		k.Step()
	}
	return done()
}

// boundary reconciles wakes into the active set before cycle cyc runs. The
// cheap steady state: no Wake landed since the last boundary and no timed
// wake is due, so nothing is scanned. Otherwise one pass over the parked
// units activates those due and recomputes the earliest timed wake.
func (k *Kernel) boundary(cyc uint64) {
	sig := k.wakeSignal.Load()
	if sig == k.lastSignal && cyc < k.nextDue {
		return
	}
	k.lastSignal = sig
	due := uint64(NoEvent)
	for i := range k.units {
		u := &k.units[i]
		if u.active {
			continue
		}
		if st := u.act.state.Load(); st <= cyc {
			k.activate(i)
		} else if st < due {
			due = st
		}
	}
	k.nextDue = due
}

// activate returns a parked unit to every-cycle execution. A wake means the
// machine is churning again, so the demote cadence resets: the woken unit
// gets demoteEvery cycles of execution before it is polled for re-parking.
func (k *Kernel) activate(i int) {
	u := &k.units[i]
	u.active = true
	u.act.state.Store(0)
	k.nActive++
	k.actDirty = true
	k.engineStats.Activations++
	k.demoteGap = demoteEvery
	// Pull the next pass earlier, never later: under a steady trickle of
	// wakes, pushing it out would starve demotion entirely.
	if n := k.cycle + demoteEvery - 1; n < k.demoteNext {
		k.demoteNext = n
	}
}

// demotePass parks every active idle-capable unit whose components all
// report Idle(), recording the earliest self-scheduled event as the wake,
// and reports whether it parked anything (the backoff signal). Runs between
// cycles on the driver, so Idle() sees the cycle just executed and no Wake
// can race the state store.
func (k *Kernel) demotePass(cyc uint64) bool {
	k.engineStats.DemotePasses++
	parked := false
	for i := range k.units {
		u := &k.units[i]
		if !u.active || !u.canIdle {
			continue
		}
		idle := true
		for _, d := range u.idlers {
			if !d.Idle() {
				idle = false
				break
			}
		}
		if !idle {
			continue
		}
		w := uint64(NoEvent)
		for _, nx := range u.nexters {
			c := nx.NextEventCycle(cyc)
			if c <= cyc {
				c = cyc + 1
			}
			if c < w {
				w = c
			}
		}
		if w <= cyc+1 {
			continue // due next cycle anyway; parking would just churn
		}
		u.active = false
		u.act.state.Store(w)
		k.nActive--
		k.actDirty = true
		k.engineStats.Parks++
		parked = true
		if w < k.nextDue {
			k.nextDue = w
		}
	}
	return parked
}

// rebuildSerialActive refreshes the serial dispatch list from the active
// units, in unit order. It never allocates: ensureEngine sizes the list to
// the full component count when it builds the units.
func (k *Kernel) rebuildSerialActive() {
	k.serialAct = k.serialAct[:0]
	for i := range k.units {
		if k.units[i].active {
			k.serialAct = append(k.serialAct, k.units[i].comps...)
		}
	}
}

// StopWorkers releases the persistent worker goroutines; the next parallel
// Step restarts them. Calling it is optional — an unreachable kernel's pool
// is stopped by a runtime cleanup — but drivers that hold many kernels alive
// (a sweep retaining finished machines for their results, say) can release
// the goroutines eagerly with it.
func (k *Kernel) StopWorkers() {
	if k.pool != nil {
		k.pool.stop()
		k.pool = nil
	}
}

// Components reports how many components are registered.
func (k *Kernel) Components() int {
	return len(k.components)
}

// ActiveUnits reports the activity engine's current active/total scheduling
// unit counts (equal until the first Step builds the units, or when
// idle-skip is off).
func (k *Kernel) ActiveUnits() (active, total int) {
	if len(k.units) == 0 {
		return len(k.components), len(k.components)
	}
	return k.nActive, len(k.units)
}

// BalanceStats reports the cost-balanced sharder's activity since the pool
// started: how many rebalance passes ran and how many unit migrations they
// performed. Zeroes when the kernel is serial or the pool has not started.
//
// Safe to call mid-run, including from goroutines other than the driver
// (watchdog hooks, test pollers): both counters are atomics written only by
// the driver between cycles, so a concurrent read observes a consistent
// recent value, never a torn one. The only caveat is reconfiguration —
// SetWorkers/Register/SetIdleSkip swap the pool itself and must not race
// this call, same as every other kernel mutation.
func (k *Kernel) BalanceStats() (rebalances, migrations uint64) {
	if k.pool == nil {
		return 0, 0
	}
	return k.pool.rebalances.Load(), k.pool.migrations.Load()
}

// SetPerfMon attaches (or with nil detaches) the self-observability monitor.
// With a monitor attached, every m.Stride-th cycle each participant times
// its evaluate/commit phases and barrier waits into its padded slot; all
// other cycles run the same loops and read the clock only around a barrier
// park. The activity-engine event census (ActivityCounters) is always
// collected either way. Attaching marks the engine dirty so a running pool
// rebuilds with its per-participant slots.
func (k *Kernel) SetPerfMon(m *perfmon.Mon) {
	k.pm = m
	k.pmStride = m.EffectiveStride()
	// The always-on census spans the kernel's lifetime; remember where the
	// monitor came in so report extrapolation only covers the attached span.
	k.pmCycle0 = k.cycle
	if m != nil {
		m.EnsureWorkers(1)
	}
	k.dirty = true
}

// ActivityCounters snapshots the activity engine's cumulative event census,
// folding the shared per-edge wake atomics into the copy. Every cycle is
// stepped, so StepsExecuted is the clock. Driver-side between cycles (the
// observer hook, or after a run).
func (k *Kernel) ActivityCounters() perfmon.ActivityCounters {
	a := k.engineStats
	a.StepsExecuted = k.cycle
	for e := range a.Wakes {
		a.Wakes[e] = k.wakeEdges[e].Load()
	}
	return a
}

// WakeEdges reads the per-edge wake census alone. Unlike ActivityCounters
// (whose plain fields are driver-only), the edge counters are atomics written
// by producers on any worker, so this accessor is safe from any goroutine —
// the telemetry exporter's /metrics handler reads it mid-run.
func (k *Kernel) WakeEdges() (w [perfmon.NumWakeEdges]uint64) {
	for e := range w {
		w[e] = k.wakeEdges[e].Load()
	}
	return w
}

// ExecMode reports how the kernel actually executes cycles: "serial" (no
// pool — everything on the driving goroutine, which is also what workers > 1
// get on a host with GOMAXPROCS < 2) or "parallel" (concurrent shards).
// Meaningful once the first Step has built the engine.
func (k *Kernel) ExecMode() string {
	if k.pool == nil {
		return "serial"
	}
	return "parallel"
}

// PerfReport drains the attached monitor into a RunReport, filling in the
// run facts only the kernel knows (cycle count, execution mode, activity
// census, balance stats). wallNs is the caller-measured wall time of the run
// span the report covers. Returns nil when no monitor is attached.
func (k *Kernel) PerfReport(label, configDigest string, wallNs int64) *perfmon.Report {
	if k.pm == nil {
		return nil
	}
	reb, mig := k.BalanceStats()
	return k.pm.Report(perfmon.RunInfo{
		Label:          label,
		ConfigDigest:   configDigest,
		Workers:        k.Workers(),
		Mode:           k.ExecMode(),
		Cycles:         k.cycle,
		WallNs:         wallNs,
		Activity:       k.ActivityCounters(),
		MonitoredSteps: k.cycle - k.pmCycle0,
		Rebalances:     reb,
		Migrations:     mig,
	})
}

// ActivityReport renders the activity engine's current state for hang
// diagnosis: the active/parked unit census, the next due timed wake, the
// cumulative park/wake counts by edge, and the parked units with no future
// wake filed — exactly the ones a lost wake edge would strand forever. The
// watchdog and auditor append it to their snapshots so a wedged-while-parked
// hang names the missing wake rather than just the oldest stuck flit.
// Driver-side, between cycles.
func (k *Kernel) ActivityReport() string {
	var b strings.Builder
	a := k.ActivityCounters()
	active, total := k.ActiveUnits()
	// A parked unit's state is its wake cycle; an active one's is 0.
	next := uint64(NoEvent)
	for i := range k.units {
		if st := k.units[i].act.state.Load(); st != 0 && st < next {
			next = st
		}
	}
	due := "none"
	if next != NoEvent {
		due = fmt.Sprint(next)
	}
	fmt.Fprintf(&b, "activity: %d/%d units active, next due wake at cycle %s\n", active, total, due)
	fmt.Fprintf(&b, "  %d parks, %d activations, %d demote passes\n", a.Parks, a.Activations, a.DemotePasses)
	edges := make([]string, 0, perfmon.NumWakeEdges)
	for e, n := range a.Wakes {
		if n > 0 {
			edges = append(edges, fmt.Sprintf("%s %d", perfmon.WakeEdge(e), n))
		}
	}
	fmt.Fprintf(&b, "  wakes by edge: %s\n", strings.Join(edges, ", "))
	const nameMax = 8
	stranded := 0
	for i := range k.units {
		u := &k.units[i]
		if u.active {
			continue
		}
		if st := u.act.state.Load(); st == NoEvent {
			if stranded < nameMax {
				fmt.Fprintf(&b, "  unit %d (%T) parked with no pending wake\n", i, u.comps[0])
			}
			stranded++
		}
	}
	if stranded > nameMax {
		fmt.Fprintf(&b, "  ... and %d more parked without wakes\n", stranded-nameMax)
	}
	return b.String()
}

// ensureEngine rebuilds the scheduling units after registration, worker or
// idle-skip changes and returns the running worker pool (starting it as
// needed), or nil when the kernel should step on the calling goroutine.
func (k *Kernel) ensureEngine() *phasePool {
	if k.dirty {
		k.StopWorkers()
		k.dirty = false
		k.units = nil
	}
	if k.units == nil && len(k.components) > 0 {
		k.units = k.buildUnits()
		k.nActive = len(k.units)
		k.actDirty = true
		k.lastSignal = k.wakeSignal.Load()
		k.nextDue = NoEvent
		k.demoteGap = demoteEvery
		k.demoteNext = k.cycle + demoteEvery - 1
		// Shards need two units and a host that can overlap them: with
		// GOMAXPROCS < 2 the barriers would buy nothing but context
		// switches, so such a host steps serially until the next rebuild.
		k.noShard = len(k.units) < 2 || runtime.GOMAXPROCS(0) < 2
		// A serial kernel's dispatch list holds at most every component:
		// sized here, its rebuilds never grow it.
		if k.serial() && cap(k.serialAct) < len(k.components) {
			k.serialAct = make([]Component, 0, len(k.components))
		}
	}
	if k.serial() {
		return nil
	}
	if k.pool == nil {
		nw := k.workers
		if nw > len(k.units) {
			nw = len(k.units)
		}
		k.pool = newPhasePool(k.units, nw, k.pm, k.pmStride)
		// Leak guard: Run no longer tears the pool down, so a kernel that is
		// simply dropped would otherwise strand parked goroutines. The pool
		// holds no reference back to the kernel, so the cleanup fires once
		// the kernel is unreachable.
		k.pool.cleanup = runtime.AddCleanup(k, func(p *phasePool) { p.stop() }, k.pool)
	}
	return k.pool
}

// serial reports whether the kernel steps on the calling goroutine: one
// worker, too few components to split, or no shards (see ensureEngine).
func (k *Kernel) serial() bool {
	return k.workers <= 1 || len(k.components) < 2*k.workers || k.noShard
}

// buildUnits groups components into scheduling units (registration order
// within a unit, first-appearance order across units), weighs each unit by
// its component count, and resets every unit's activity to active. Every
// unit's comps, idlers and nexters are cut from three shared slices.
func (k *Kernel) buildUnits() []unit {
	// unitOf maps a group key to its unit (-1 = none yet); of maps each
	// component to its unit.
	unitOf := make([]int32, len(k.groupActs))
	for i := range unitOf {
		unitOf[i] = -1
	}
	of := make([]int32, len(k.components))
	n := int32(0)
	for i := range k.components {
		key := k.groupKeys[i]
		if key >= 0 && unitOf[key] >= 0 {
			of[i] = unitOf[key]
			continue
		}
		if key >= 0 {
			unitOf[key] = n
		}
		of[i] = n
		n++
	}
	units := make([]unit, n)
	// Count each unit's members, then cut its pieces in unit order.
	nComps := make([]int32, n)
	nIdlers := make([]int32, n)
	nNexters := make([]int32, n)
	idlers, nexters := 0, 0
	for i, c := range k.components {
		u := of[i]
		if nComps[u] == 0 {
			units[u].act = k.acts[i]
		}
		nComps[u]++
		if _, ok := c.(Idler); ok {
			nIdlers[u]++
			idlers++
		}
		if _, ok := c.(NextEventer); ok {
			nNexters[u]++
			nexters++
		}
	}
	compSlab := make([]Component, len(k.components))
	idlerSlab := make([]Idler, idlers)
	nexterSlab := make([]NextEventer, nexters)
	for i := range units {
		u := &units[i]
		u.comps, compSlab = compSlab[:0:nComps[i]], compSlab[nComps[i]:]
		u.idlers, idlerSlab = idlerSlab[:0:nIdlers[i]], idlerSlab[nIdlers[i]:]
		u.nexters, nexterSlab = nexterSlab[:0:nNexters[i]], nexterSlab[nNexters[i]:]
		u.canIdle = nIdlers[i] == nComps[i]
	}
	for i, c := range k.components {
		u := &units[of[i]]
		u.comps = append(u.comps, c)
		if d, ok := c.(Idler); ok {
			u.idlers = append(u.idlers, d)
		}
		if nx, ok := c.(NextEventer); ok {
			u.nexters = append(u.nexters, nx)
		}
	}
	for i := range units {
		u := &units[i]
		u.cost = float64(len(u.comps))
		u.active = true
		u.act.state.Store(0)
	}
	return units
}
