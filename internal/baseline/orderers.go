package baseline

import (
	"sort"

	"scorpio/internal/sim"
)

// KindExpiry marks INSO expiry broadcasts; endpoints drop them on arrival
// (their cost is the network bandwidth they consumed). The value is disjoint
// from the coherence message kinds by construction of the baseline systems.
const KindExpiry = -1

// TokenB is the Figure 7 TokenB model: protocol-level ordering with zero
// interconnect ordering cost. Matching the paper's methodology ("we do not
// model the behavior of TokenB in the event of data races where retries and
// expensive persistent requests affect it significantly"), token exchange is
// abstracted into an oracle sequencer: every request is ordered the moment
// it is injected.
type TokenB struct {
	next uint64
}

// NewTokenB returns the oracle sequencer.
func NewTokenB() *TokenB { return &TokenB{} }

// AssignKey implements Orderer.
func (t *TokenB) AssignKey(node int, cycle uint64) uint64 {
	k := t.next
	t.next++
	return k
}

// Skippable implements Orderer: every key belongs to a real request.
func (t *TokenB) Skippable(key uint64, cycle uint64) bool { return false }

// Evaluate implements sim.Component.
func (t *TokenB) Evaluate(cycle uint64) {}

// Commit implements sim.Component.
func (t *TokenB) Commit(cycle uint64) {}

// Idle implements sim.Idler: the oracle sequencer is pure demand-driven
// state (AssignKey is called from endpoint commits), so its own cycle work
// is always skippable.
func (t *TokenB) Idle() bool { return true }

// expiryRange is a visible-after-delay range of expired INSO slots.
type expiryRange struct {
	from, to  uint64 // slot indexes [from, to)
	visibleAt uint64
}

// INSO models In-Network Snoop Ordering: source s owns the global orders
// s, s+N, s+2N, …; unused orders must be expired explicitly. Expiries become
// visible to consumers one mesh traversal after their window boundary, and
// each expiry event costs a real broadcast on the main network.
type INSO struct {
	nodes  int
	window int
	delay  uint64 // expiry visibility delay (mesh diameter)

	nextSlot []uint64
	expiries [][]expiryRange
	pending  []int // expiry broadcasts owed per node
	// pendingSince stamps the cycle a node's owed count last grew; an owed
	// broadcast becomes consumable the cycle after (uniform one-cycle
	// visibility, so a parked endpoint woken at stamp+1 injects on exactly
	// the same cycle a never-parked one does).
	pendingSince []uint64

	// Activity wiring: endAct[s] is node s's endpoint scheduling unit, woken
	// when the node starts owing an expiry broadcast; self is INSO's own
	// unit, woken (by AssignKey) for the window boundary after an injection
	// breaks slot-pointer equality.
	endAct []*sim.Activity
	self   *sim.Activity

	// Stats
	ExpiredSlots    uint64
	ExpiryBroadcast uint64
	RealRequests    uint64
}

// NewINSO builds the orderer for an N-node mesh with the given expiration
// window in cycles (the paper sweeps 20, 40 and 80).
func NewINSO(nodes, window int, diameter int) *INSO {
	return &INSO{
		nodes:        nodes,
		window:       window,
		delay:        uint64(diameter),
		nextSlot:     make([]uint64, nodes),
		expiries:     make([][]expiryRange, nodes),
		pending:      make([]int, nodes),
		pendingSince: make([]uint64, nodes),
		endAct:       make([]*sim.Activity, nodes),
	}
}

// SetEndpointActivity wires node's endpoint scheduling unit so INSO can wake
// it when the node starts owing an expiry broadcast.
func (o *INSO) SetEndpointActivity(node int, a *sim.Activity) { o.endAct[node] = a }

// BindActivity wires INSO's own scheduling unit (the AssignKey self-wake
// target).
func (o *INSO) BindActivity(a *sim.Activity) { o.self = a }

// nextBoundary returns the first window boundary strictly after cycle.
func (o *INSO) nextBoundary(cycle uint64) uint64 {
	w := uint64(o.window)
	return (cycle/w + 1) * w
}

// AssignKey implements Orderer: the source's next owned order. Advancing one
// source's slot pointer creates lag everywhere else, so INSO wakes itself for
// the next window boundary where that lag turns into expiries.
func (o *INSO) AssignKey(node int, cycle uint64) uint64 {
	k := o.nextSlot[node]
	o.nextSlot[node]++
	o.RealRequests++
	o.self.Wake(o.nextBoundary(cycle), sim.WakeTimer)
	return uint64(node) + uint64(o.nodes)*k
}

// Skippable implements Orderer: a key may be skipped once its source has
// expired the slot and the expiry had time to propagate. A source's ranges
// are appended ascending and disjoint (each starts at or after the previous
// one's end), so the first range ending past the slot is the only one that
// can hold it.
func (o *INSO) Skippable(key uint64, cycle uint64) bool {
	s := int(key % uint64(o.nodes))
	k := key / uint64(o.nodes)
	rs := o.expiries[s]
	i := sort.Search(len(rs), func(i int) bool { return rs[i].to > k })
	return i < len(rs) && rs[i].from <= k && cycle >= rs[i].visibleAt
}

// Evaluate advances expiry state at window boundaries: each source whose
// slot pointer lags the fastest source expires the gap (INSO's slots are
// time-associated, so an idle node's unused orders for elapsed windows are
// expired together). The fastest source never expires — all its slots are
// assigned — so expiry traffic is proportional to how unevenly nodes inject.
func (o *INSO) Evaluate(cycle uint64) {
	if cycle == 0 || cycle%uint64(o.window) != 0 {
		return
	}
	var max uint64
	for _, k := range o.nextSlot {
		if k > max {
			max = k
		}
	}
	target := max
	for s := range o.nextSlot {
		if o.nextSlot[s] >= target {
			continue
		}
		from, to := o.nextSlot[s], target
		o.nextSlot[s] = target
		o.expiries[s] = append(o.expiries[s], expiryRange{from: from, to: to, visibleAt: cycle + o.delay})
		o.ExpiredSlots += to - from
		o.pending[s]++
		o.pendingSince[s] = cycle
		o.endAct[s].Wake(cycle+1, sim.WakeOrder)
	}
}

// Commit implements sim.Component.
func (o *INSO) Commit(cycle uint64) {}

// TakeExpiryBroadcast reports whether the node owes a consumable expiry
// broadcast and consumes it; the endpoint injects the real packet. An owed
// broadcast is consumable starting the cycle after it was created (see
// pendingSince), which makes consumption timing independent of whether the
// endpoint was parked when the debt appeared.
func (o *INSO) TakeExpiryBroadcast(node int, cycle uint64) bool {
	if o.pending[node] > 0 && cycle > o.pendingSince[node] {
		o.pending[node]--
		o.ExpiryBroadcast++
		return true
	}
	return false
}

// OwesExpiry implements ExpirySource: node still owes broadcasts (visible or
// not), so its endpoint must stay schedulable.
func (o *INSO) OwesExpiry(node int) bool { return o.pending[node] > 0 }

// Idle implements sim.Idler: at a window boundary INSO only acts when some
// source's slot pointer lags the fastest; with all pointers equal nothing
// can expire until an AssignKey (whose self-wake re-arms the boundary).
func (o *INSO) Idle() bool {
	for _, k := range o.nextSlot[1:] {
		if k != o.nextSlot[0] {
			return false
		}
	}
	return true
}

// NextEventCycle implements sim.NextEventer: the next window boundary while
// slot pointers are unequal, nothing otherwise.
func (o *INSO) NextEventCycle(cycle uint64) uint64 {
	if o.Idle() {
		return sim.NoEvent
	}
	return o.nextBoundary(cycle)
}

// ExpiryRatio reports expiry broadcasts per real request (the paper's 25x
// observation for a 20-cycle window under low load).
func (o *INSO) ExpiryRatio() float64 {
	if o.RealRequests == 0 {
		return 0
	}
	return float64(o.ExpiryBroadcast) / float64(o.RealRequests)
}
