package noc

import "scorpio/internal/sim"

// Credit is the flow-control return channel token: the downstream buffer
// freed one slot of the given virtual channel, and, when FreeVC is set, the
// tail flit departed so the VC itself may be reallocated to a new packet.
// A credit carries no flit: flits cross links by value and buffered flits
// live in the receiving router's own VC rings, so no object flows back
// upstream.
type Credit struct {
	VNet   VNet
	VC     int
	FreeVC bool
}

// noStamp marks an unwritten link slot (cycle numbers start at 0).
const noStamp = ^uint64(0)

// Link is a one-cycle point-to-point channel between an upstream output port
// and a downstream input port. Flits flow downstream and credits flow back
// upstream; both take exactly one cycle.
//
// A Link is passive — it is not a kernel component. Each direction is a
// cycle-stamped double mailbox: a value written at cycle c lands in slot c&1
// stamped c, and a read at cycle c returns slot (c-1)&1 only if its stamp is
// c-1. The parity split means a same-cycle write never clobbers the value
// being read, giving exactly the latch-one-cycle semantics the old
// component-based link provided, at zero per-cycle cost for quiet links.
//
// Flits cross the link by value: Send copies the 32-byte flit into the
// mailbox slot and Flit returns a pointer into that slot. The pointer is
// valid only during the reading cycle's evaluate phase — the slot is next
// overwritten at cycle+1, after the epoch barrier — so a consumer that keeps
// a flit across cycles must copy the value out (router input VC rings and
// the NIC's response reassembly rings hold values).
//
// Links are also the activity engine's wake edges: a flit write wakes the
// downstream reader's scheduling unit for the arrival cycle, a credit write
// wakes the upstream reader's. Readers that never park may leave the wake
// hooks nil.
//
// The struct is padded to a multiple of the cache-line size: adjacent links
// in the mesh belong to different shards under the parallel kernel, and the
// padding keeps one shard's mailbox writes from invalidating a neighbour
// shard's line (false sharing).
type Link struct {
	buf    [2]Flit
	stamp  [2]uint64
	cred   [2][]Credit
	cstamp [2]uint64

	// flitWake is the downstream (flit-reading) unit's mailbox; credWake the
	// upstream (credit-reading) unit's. Nil-safe.
	flitWake *sim.Activity
	credWake *sim.Activity

	_ [32]byte // pad 160 → 192 bytes (3 cache lines)
}

// NewLink returns an idle link. The credit slices are presized to the
// largest burst a port produces in one cycle (one credit per VC dequeue,
// bounded by the handful of VCs behind a port), so the credit path never
// allocates — not even the slow high-water trickle a near-idle mesh would
// otherwise pay for thousands of cycles.
func NewLink() *Link {
	return &Link{
		stamp:  [2]uint64{noStamp, noStamp},
		cstamp: [2]uint64{noStamp, noStamp},
		cred:   [2][]Credit{make([]Credit, 0, 8), make([]Credit, 0, 8)},
	}
}

// SetFlitWake wires the scheduling unit woken by flit arrivals (the
// downstream reader).
func (l *Link) SetFlitWake(a *sim.Activity) { l.flitWake = a }

// SetCreditWake wires the scheduling unit woken by credit arrivals (the
// upstream reader).
func (l *Link) SetCreditWake(a *sim.Activity) { l.credWake = a }

// Send places a flit on the link during cycle's evaluate phase; it arrives
// downstream next cycle. At most one flit may be sent per cycle.
func (l *Link) Send(f Flit, cycle uint64) {
	s := cycle & 1
	if l.stamp[s] == cycle {
		panic("noc: two flits sent on one link in the same cycle")
	}
	l.buf[s] = f
	l.stamp[s] = cycle
	l.flitWake.Wake(cycle+1, sim.WakeFlit)
}

// Flit returns the flit that arrived this cycle, or nil. The pointer aliases
// the mailbox slot and is valid only for the current cycle's evaluate phase;
// copy the value to keep it longer.
func (l *Link) Flit(cycle uint64) *Flit {
	if cycle == 0 {
		return nil
	}
	if s := (cycle - 1) & 1; l.stamp[s] == cycle-1 {
		return &l.buf[s]
	}
	return nil
}

// SendCredit returns a credit upstream during cycle's evaluate phase; it
// arrives next cycle. The two credit slices are reused (truncated on the
// first credit of a cycle), keeping the credit path allocation-free once
// warmed.
func (l *Link) SendCredit(c Credit, cycle uint64) {
	s := cycle & 1
	if l.cstamp[s] != cycle {
		l.cred[s] = l.cred[s][:0]
		l.cstamp[s] = cycle
	}
	l.cred[s] = append(l.cred[s], c)
	l.credWake.Wake(cycle+1, sim.WakeCredit)
}

// Credits returns the credits that arrived this cycle (nil when none).
func (l *Link) Credits(cycle uint64) []Credit {
	if cycle == 0 {
		return nil
	}
	if s := (cycle - 1) & 1; l.cstamp[s] == cycle-1 {
		return l.cred[s]
	}
	return nil
}

// FlitPendingAt reports whether a flit written during cycle is awaiting its
// next-cycle read — the downstream reader's "input arriving" idle check.
func (l *Link) FlitPendingAt(cycle uint64) bool {
	return l.stamp[cycle&1] == cycle
}

// CreditsPendingAt reports whether credits written during cycle are awaiting
// their next-cycle read — the upstream reader's idle check.
func (l *Link) CreditsPendingAt(cycle uint64) bool {
	return l.cstamp[cycle&1] == cycle
}
