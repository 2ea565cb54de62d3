// Package perfmon is the simulation engine's self-observability layer: a
// set of always-cheap counters the kernel and its phase pool fill in while a
// run executes, drained into a structured RunReport (JSON plus a
// human-readable table) when the run finishes.
//
// The package is a leaf — standard library only — so internal/sim can import
// it without cycles; everything the report needs beyond the raw counters
// (cycle counts, balance stats, host metadata) is passed in at build time.
//
// The collection discipline mirrors the rest of the observability layer:
//
//   - Detached (the kernel's *Mon is nil) the hot path pays one predictable
//     branch and allocates nothing.
//   - Attached, nanotime reads are *sampled*: every Stride-th cycle each
//     participant timestamps its evaluate phase, commit phase and barrier
//     waits; all other cycles read the clock only around a barrier park.
//     Totals are extrapolated from the sampled sums, so the per-cycle
//     overhead is a few clock reads divided by the stride — held under 2%
//     by the perfsmoke guard — while steady-state estimates stay within a
//     few percent of wall clock.
//   - Every counter a worker writes is an atomic in a padded per-worker
//     struct (no false sharing, no cross-worker writes), so reading them
//     mid-run from any goroutine is race-free by construction.
package perfmon

import "sync/atomic"

// WakeEdge classifies the producer edge that requested a parked scheduling
// unit's wake — the activity engine's "who woke whom" taxonomy. Components
// pass their edge when calling Activity.Wake; the kernel counts successful
// wake requests per edge.
type WakeEdge uint8

// Wake edge kinds. NumWakeEdges sizes per-edge counter arrays.
const (
	// WakeFlit is a link flit write waking the downstream reader.
	WakeFlit WakeEdge = iota
	// WakeCredit is a link credit write waking the upstream reader.
	WakeCredit
	// WakeNotif is notification-network activity: a merged vector delivered
	// to the nodes, or a NIC arming the network for a window start.
	WakeNotif
	// WakeOrder is an ordering-layer edge (an orderer handing an endpoint
	// expiry work to broadcast).
	WakeOrder
	// WakeTimer is a component's self-scheduled future wake (window
	// boundaries, expiry deadlines).
	WakeTimer
	// WakeOther is everything unclassified (tests, external drivers).
	WakeOther
	NumWakeEdges = int(WakeOther) + 1
)

// wakeEdgeNames indexes WakeEdge for reports.
var wakeEdgeNames = [NumWakeEdges]string{
	"flit", "credit", "notif", "order", "timer", "other",
}

// String names the edge for reports.
func (e WakeEdge) String() string {
	if int(e) < len(wakeEdgeNames) {
		return wakeEdgeNames[e]
	}
	return "other"
}

// DefaultStride is the sampled-nanotime cycle stride when Mon.Stride is 0.
// Prime, and co-prime with the pool's 256-cycle cost-profiling cadence, so
// perf samples do not systematically land on the (slightly slower)
// profiling cycles and inflate the extrapolated totals.
const DefaultStride = 13

// Worker holds one participant's phase-time and barrier accounting. All
// fields are atomics written only by the owning participant (worker i writes
// Worker i) on sampled cycles, so concurrent reads from any goroutine are
// race-free and the padding keeps neighbouring workers off each other's
// cache line.
//
// The *Ns sums cover sampled cycles only; reports extrapolate by the
// sampled fraction. StepNs is driver-only (participant 0): the span of the
// whole kernel step, from which the report derives the "other" bucket
// (boundary reconcile, demote passes, dispatch-list rebuilds, observer).
type Worker struct {
	EvalNs   atomic.Int64
	CommitNs atomic.Int64
	SpinNs   atomic.Int64 // barrier busy-spin + yield time
	ParkNs   atomic.Int64 // barrier futex-park time
	StepNs   atomic.Int64 // participant 0 only: full Step span
	Sampled  atomic.Uint64
	Led      atomic.Uint64 // sampled cycles where this participant arrived last at the evaluate barrier (and woke the others)
	Followed atomic.Uint64 // sampled cycles where it waited for the barrier instead
	_        [64]byte
}

// RebalanceEvent records one cost-balancing repack: which cycle, how many
// units changed shard, and the shard imbalance before and after (heaviest
// shard load over mean shard load, in the sharder's cost units).
type RebalanceEvent struct {
	Cycle           uint64  `json:"cycle"`
	Migrations      uint64  `json:"migrations"`
	ImbalanceBefore float64 `json:"imbalance_before"`
	ImbalanceAfter  float64 `json:"imbalance_after"`
}

// rebalanceRing bounds the per-run rebalance log; a run that repacks more
// than this keeps the newest events (the count is exact either way).
const rebalanceRing = 64

// Mon is the attachable monitor: the kernel holds one per run and hands each
// pool participant its padded Worker slot. Allocation happens only at attach
// and (re)shard time, never per cycle.
type Mon struct {
	// Stride is the sampled-nanotime cycle stride (DefaultStride when 0).
	// Set before attaching; tests use 1 for exact accounting.
	Stride uint64

	workers []*Worker
	rebal   [rebalanceRing]RebalanceEvent
	rebalN  atomic.Uint64
}

// New returns an empty monitor with the default sampling stride.
func New() *Mon { return &Mon{} }

// EffectiveStride resolves the sampling stride.
func (m *Mon) EffectiveStride() uint64 {
	if m == nil || m.Stride == 0 {
		return DefaultStride
	}
	return m.Stride
}

// EnsureWorkers grows the per-participant slots to at least n. Driver-only,
// called at pool (re)build; existing slots keep their accumulated counts so
// stats survive reshards.
func (m *Mon) EnsureWorkers(n int) {
	for len(m.workers) < n {
		m.workers = append(m.workers, &Worker{})
	}
}

// Worker returns participant i's slot (EnsureWorkers must have covered i).
func (m *Mon) Worker(i int) *Worker { return m.workers[i] }

// Workers returns the number of allocated participant slots.
func (m *Mon) Workers() int { return len(m.workers) }

// RecordRebalance appends one repack event (driver-only, between cycles;
// the fixed ring keeps recording allocation-free).
func (m *Mon) RecordRebalance(ev RebalanceEvent) {
	if m == nil {
		return
	}
	n := m.rebalN.Load()
	m.rebal[n%rebalanceRing] = ev
	m.rebalN.Store(n + 1)
}

// rebalanceEvents returns the recorded events in chronological order.
func (m *Mon) rebalanceEvents() []RebalanceEvent {
	n := m.rebalN.Load()
	if n == 0 {
		return nil
	}
	k := n
	if k > rebalanceRing {
		k = rebalanceRing
	}
	out := make([]RebalanceEvent, 0, k)
	for i := n - k; i < n; i++ {
		out = append(out, m.rebal[i%rebalanceRing])
	}
	return out
}

// ActivityCounters is the activity engine's cumulative event census. The
// kernel fills the plain fields from the driving goroutine (its demote,
// boundary and fast-forward passes all run between cycles); wake requests
// are counted per edge with atomics because producers issue them from any
// worker mid-phase. A copy of this struct is safe to retain.
type ActivityCounters struct {
	// StepsExecuted counts cycles actually stepped (fast-forwarded cycles
	// are skipped, so StepsExecuted <= kernel cycle).
	StepsExecuted uint64 `json:"steps_executed"`
	// Parks counts units demoted off the every-cycle schedule.
	Parks uint64 `json:"parks"`
	// Activations counts parked units returned to the schedule; of those,
	// WheelActivations came from the timing wheel (self-scheduled timers)
	// rather than a producer's wake edge.
	Activations      uint64 `json:"activations"`
	WheelActivations uint64 `json:"wheel_activations"`
	// DemotePasses counts idle-scan passes over the active units.
	DemotePasses uint64 `json:"demote_passes"`
	// WheelPending is the current number of filed timing-wheel entries;
	// WheelHighWater the run's maximum.
	WheelPending   uint64 `json:"wheel_pending"`
	WheelHighWater uint64 `json:"wheel_high_water"`
	// FastForwards counts fully-quiescent spans the clock jumped over;
	// FastForwardCycles the cycles skipped across them.
	FastForwards      uint64 `json:"fast_forwards"`
	FastForwardCycles uint64 `json:"fast_forward_cycles"`
	// Wakes counts successful wake requests (a CAS that lowered a parked
	// unit's wake cycle) by producer edge.
	Wakes [NumWakeEdges]uint64 `json:"-"`
}

// TotalWakes sums the per-edge wake requests.
func (a ActivityCounters) TotalWakes() uint64 {
	var t uint64
	for _, w := range a.Wakes {
		t += w
	}
	return t
}

// WakesByEdge renders the per-edge counts keyed by edge name (for JSON;
// encoding/json sorts map keys, so output is deterministic).
func (a ActivityCounters) WakesByEdge() map[string]uint64 {
	m := make(map[string]uint64, NumWakeEdges)
	for e, n := range a.Wakes {
		m[WakeEdge(e).String()] = n
	}
	return m
}
