package sim

import (
	"sync/atomic"

	"scorpio/internal/obs/perfmon"
)

// WakeEdge re-exports the perfmon wake-edge taxonomy: producers classify
// their Wake calls so the engine's self-observability layer can report who
// wakes whom (see perfmon.ActivityCounters.Wakes).
type WakeEdge = perfmon.WakeEdge

// Wake edge kinds (see perfmon's definitions for semantics).
const (
	WakeFlit   = perfmon.WakeFlit
	WakeCredit = perfmon.WakeCredit
	WakeNotif  = perfmon.WakeNotif
	WakeOrder  = perfmon.WakeOrder
	WakeTimer  = perfmon.WakeTimer
	WakeOther  = perfmon.WakeOther
)

// NoEvent is the "no known future event" sentinel for NextEventCycle and for
// an Activity parked without a self-wake.
const NoEvent = ^uint64(0)

// Idler is optionally implemented by components that can tell the kernel
// their Evaluate/Commit would be a pure no-op. A unit whose components all
// implement Idler is eligible for idle-skip: once every member reports
// Idle(), the kernel stops ticking the unit until something wakes it.
//
// The contract that keeps skip-on execution bit-identical to skip-off:
//
//   - Idle() must only return true when, absent new input, Evaluate and
//     Commit change no state (no queues drained, no RNG drawn, no counters
//     moved). Spurious activity is safe — the kernel may tick an idle
//     component and nothing changes; a missed tick is not.
//   - Any input another component can hand this one must either arrive
//     through a waking channel (a Link write, an Activity.Wake) or be
//     visible to Idle() itself, so the component never sleeps through work.
//   - Idle() is only consulted for units that executed the cycle just
//     finished, so it may inspect "did an input land this cycle" state such
//     as link stamps.
type Idler interface {
	// Idle reports that the component has no work now and none arriving
	// next cycle.
	Idle() bool
}

// NextEventer is optionally implemented by idle-capable components that know
// the next cycle at which they will have self-generated work (an injector's
// presampled issue cycle, a queue's ready time, an orderer's next window
// boundary). The kernel parks the unit with a timing-wheel entry at the
// earliest such cycle; components whose work is purely input-driven omit the
// interface and rely on wakes alone.
type NextEventer interface {
	// NextEventCycle returns the first cycle > now at which the component
	// needs to run again, or NoEvent if it has no self-scheduled work.
	NextEventCycle(now uint64) uint64
}

// Activity is one scheduling unit's wake mailbox. The kernel hands one out
// per unit at registration; producers that deposit work for the unit
// (upstream links, the notification network, orderers) call Wake with the
// first cycle the unit must run to consume it.
//
// state encodes the unit's scheduling status: 0 means active (ticked every
// cycle); NoEvent means parked with no pending wake; any other value is the
// earliest requested wake cycle. Wake never touches an active unit — while a
// unit runs every cycle, its own Idle() check sees freshly-arrived input, so
// recording the wake would be redundant atomic traffic on the hot path.
// Transitions 0→parked and parked→0 are made only by the driver between
// cycles; Wake only ever lowers a parked unit's wake cycle, so the two sides
// never race.
type Activity struct {
	state atomic.Uint64
	// sig points at the owning kernel's wake counter; every successful
	// lowering bumps it so the driver knows a full reconcile scan is due.
	sig *atomic.Uint64
	// edges points at the owning kernel's per-edge wake census; each
	// successful lowering is attributed to the producer's declared edge.
	edges *[perfmon.NumWakeEdges]atomic.Uint64

	// Pad to a full cache line: Activity words are written by producer
	// shards (Wake) while neighbouring Activities are read by others;
	// without padding two units' mailboxes share a line and every wake
	// invalidates an unrelated shard's cache.
	_ [64 - 24]byte
}

// Wake requests that the unit run at the given cycle (or earlier, if an
// earlier wake is already pending), attributing the request to the
// producer's edge kind. Nil-safe and safe from any goroutine during a
// cycle's phases; wakes land strictly before the driver's between-cycle
// scan because the phase barriers order them.
func (a *Activity) Wake(cycle uint64, edge WakeEdge) {
	if a == nil {
		return
	}
	if cycle == 0 {
		// Cycle 0 cannot be a wake target (everything starts active); 0 is
		// the active encoding.
		cycle = 1
	}
	for {
		cur := a.state.Load()
		if cur == 0 || cur <= cycle {
			return // active, or an equal/earlier wake is already pending
		}
		if a.state.CompareAndSwap(cur, cycle) {
			a.sig.Add(1)
			a.edges[edge].Add(1)
			return
		}
	}
}
