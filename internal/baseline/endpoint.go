// Package baseline implements the prior ordered-interconnect proposals the
// paper compares against in Figure 7: TokenB [Martin et al., ISCA 2003] and
// INSO [Agarwal et al., HPCA 2009].
//
// Both run the same snoopy protocol and main mesh network as SCORPIO, but
// order requests differently:
//
//   - TokenB performs ordering at the protocol level with tokens; absent
//     data races (which the paper explicitly does not model, matching its
//     own methodology) it behaves like snoopy coherence with zero ordering
//     latency. We model it with an oracle sequencer that hands out global
//     sequence numbers at injection for free.
//   - INSO pre-assigns each source a rotating slice of "snoop orders"
//     (source s owns orders s, s+N, s+2N, …). Nodes process orders
//     ascending; a source that does not inject must periodically expire its
//     unused orders by broadcasting expiry messages. Small expiration
//     windows cost bandwidth (the paper measures 25 expiries per real
//     message at a 20-cycle window); large windows inflate ordering latency.
//
// Both are realised by an Endpoint: a NIC replacement with an idealized
// (unbounded) reorder buffer that delivers request-class packets in global
// key order. The idealization is deliberate — it can only flatter the
// baselines, which is the conservative direction for SCORPIO's comparison.
package baseline

import (
	"fmt"

	"scorpio/internal/nic"
	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/ring"
	"scorpio/internal/sim"
	"scorpio/internal/stats"
)

// Orderer assigns global order keys to injected requests and decides when a
// buffered key may be delivered.
type Orderer interface {
	// AssignKey gives the next order key for a request injected by node.
	AssignKey(node int, cycle uint64) uint64
	// NextDeliverable reports whether key is the next to deliver at a node
	// that has already delivered all keys below nextKey, and whether the key
	// is known to be skippable (expired without a request).
	Skippable(key uint64, cycle uint64) bool
}

// Endpoint replaces the NIC for the TokenB/INSO baselines: same mesh links,
// same agent interface, but ordering by externally assigned keys with an
// unbounded reorder buffer (credits returned on arrival).
type Endpoint struct {
	node    int
	mesh    *noc.Mesh
	agent   nic.Agent
	orderer Orderer
	// pool takes back every response the agent accepts (nil keeps them);
	// requests are broadcasts and never recycled.
	pool nic.Recycler
	// expiry, when set (INSO), supplies owed expiry broadcasts. OwesExpiry
	// keeps the endpoint awake while a broadcast is owed but not yet
	// consumable (see ExpirySource).
	expiry ExpirySource

	term    *noc.Terminal
	reqQ    ring.Ring[*noc.Packet]
	respQ   ring.Ring[*noc.Packet]
	staged  []*noc.Packet
	stagedR []*noc.Packet

	reorder  reorderRing // order key -> packet awaiting delivery
	nextKey  uint64
	doneResp ring.Ring[*noc.Packet]

	// Stats
	Injected     uint64
	Delivered    uint64
	OrderingWait stats.Mean

	// tracer is nil unless lifecycle tracing is enabled; auditor likewise
	// for the online order/coherence monitor.
	tracer  *obs.Tracer
	auditor *audit.Auditor

	// now is the cycle of the last Evaluate; Idle() uses it to check the
	// links for values committed this cycle (see sim.Idler).
	now uint64
}

// ExpirySource supplies INSO's owed expiry broadcasts. TakeExpiryBroadcast
// consumes one owed broadcast for the node when one is visible at the given
// cycle; OwesExpiry reports whether any broadcast is owed at all (visible or
// not) — the endpoint's idle check, so it stays schedulable until the debt
// is paid.
type ExpirySource interface {
	TakeExpiryBroadcast(node int, cycle uint64) bool
	OwesExpiry(node int) bool
}

type reorderEntry struct {
	pkt    *noc.Packet
	arrive uint64
}

// NewEndpoint builds a baseline endpoint on a mesh node.
func NewEndpoint(node int, mesh *noc.Mesh, orderer Orderer, agent nic.Agent) *Endpoint {
	return &Endpoint{
		node: node, mesh: mesh, agent: agent, orderer: orderer,
		term:    noc.NewTerminal(mesh, node),
		reorder: newReorderRing(64),
		reqQ:    ring.New[*noc.Packet](8),
		respQ:   ring.New[*noc.Packet](8),
	}
}

// reorderRing is the idealized (unbounded) reorder buffer, stored as a ring
// indexed by the monotonic global order key instead of a map. Keys below the
// delivery cursor can never be occupied again — an assigned INSO slot is
// never expired and each key is delivered exactly once — so the occupied
// window is [base, base+cap) and the ring grows by doubling when a key lands
// beyond it. The key of a stored entry is recoverable as pkt.SrcSeq, which is
// what grow uses to rehash.
type reorderRing struct {
	base  uint64 // delivery cursor: smallest key that may still be occupied
	buf   []reorderEntry
	occ   []bool
	count int
}

func newReorderRing(capacity int) reorderRing {
	return reorderRing{buf: make([]reorderEntry, capacity), occ: make([]bool, capacity)}
}

func (r *reorderRing) put(key uint64, e reorderEntry) {
	if key < r.base {
		panic(fmt.Sprintf("baseline: reorder key %d below delivery cursor %d", key, r.base))
	}
	for key-r.base >= uint64(len(r.buf)) {
		r.grow()
	}
	i := key % uint64(len(r.buf))
	if r.occ[i] {
		panic(fmt.Sprintf("baseline: duplicate reorder key %d", key))
	}
	r.buf[i], r.occ[i] = e, true
	r.count++
}

func (r *reorderRing) get(key uint64) (reorderEntry, bool) {
	if key < r.base || key-r.base >= uint64(len(r.buf)) {
		return reorderEntry{}, false
	}
	i := key % uint64(len(r.buf))
	if !r.occ[i] {
		return reorderEntry{}, false
	}
	return r.buf[i], true
}

func (r *reorderRing) del(key uint64) {
	i := key % uint64(len(r.buf))
	r.buf[i], r.occ[i] = reorderEntry{}, false
	r.count--
}

// advance moves the delivery cursor forward; slots below it are free.
func (r *reorderRing) advance(base uint64) { r.base = base }

func (r *reorderRing) grow() {
	buf := make([]reorderEntry, 2*len(r.buf))
	occ := make([]bool, len(buf))
	for i, e := range r.buf {
		if r.occ[i] {
			j := e.pkt.SrcSeq % uint64(len(buf))
			buf[j], occ[j] = e, true
		}
	}
	r.buf, r.occ = buf, occ
}

// SetAgent attaches the consumer.
func (e *Endpoint) SetAgent(a nic.Agent) { e.agent = a }

// SetRecycler hands every response the agent accepts to r, once the
// endpoint's tracer and auditor have read it: the node's message pool.
func (e *Endpoint) SetRecycler(r nic.Recycler) { e.pool = r }

// SetTracer attaches a lifecycle event tracer (nil disables tracing).
func (e *Endpoint) SetTracer(t *obs.Tracer) {
	e.tracer = t
	e.term.SetTracer(t)
}

// SetAuditor attaches the online auditor (nil disables auditing).
func (e *Endpoint) SetAuditor(a *audit.Auditor) { e.auditor = a }

// SetExpirySource wires the INSO orderer's expiry broadcasts through this
// endpoint's injection port.
func (e *Endpoint) SetExpirySource(s ExpirySource) {
	e.expiry = s
}

// BindActivity wires the endpoint's scheduling unit as the wake target of
// its mesh links: inject-link credits and eject-link flits both wake it.
func (e *Endpoint) BindActivity(a *sim.Activity) { e.term.Bind(a) }

// Idle implements sim.Idler: the endpoint may be skipped while it holds no
// packets, owes no expiry broadcast, and no value is in flight on its links.
func (e *Endpoint) Idle() bool {
	if e.HasPendingWork() {
		return false
	}
	if e.expiry != nil && e.expiry.OwesExpiry(e.node) {
		return false
	}
	return e.term.Quiet(e.now)
}

// SendRequest implements coherence.NetPort: the request gets a global order
// key from the orderer.
func (e *Endpoint) SendRequest(p *noc.Packet) bool {
	if p.VNet != noc.GOReq || !p.Broadcast || p.Flits != 1 {
		panic(fmt.Sprintf("baseline: SendRequest wants a single-flit broadcast, got %s", p))
	}
	e.staged = append(e.staged, p)
	return true
}

// SendResponse implements coherence.NetPort.
func (e *Endpoint) SendResponse(p *noc.Packet) bool {
	e.stagedR = append(e.stagedR, p)
	return true
}

// Evaluate runs one endpoint cycle.
func (e *Endpoint) Evaluate(cycle uint64) {
	e.now = cycle
	e.term.TakeCredits(cycle)
	e.receive(cycle)
	e.deliver(cycle)
	e.inject(cycle)
}

// Commit stages injections and assigns order keys (the oracle/slot orderers
// are deterministic, so assignment at commit keeps runs reproducible).
func (e *Endpoint) Commit(cycle uint64) {
	for _, p := range e.staged {
		p.SrcSeq = e.orderer.AssignKey(e.node, cycle)
		e.reqQ.Push(p)
		// Loop the packet back for local delivery at its order position.
		e.reorder.put(p.SrcSeq, reorderEntry{pkt: p, arrive: cycle})
	}
	e.staged = e.staged[:0]
	for _, p := range e.stagedR {
		e.respQ.Push(p)
	}
	e.stagedR = e.stagedR[:0]
	// Owed INSO expiry broadcasts consume real request-class bandwidth.
	// Expiry packets stay heap-allocated: a broadcast is one shared object
	// delivered at every node, so no single endpoint may recycle it.
	if e.expiry != nil && e.expiry.TakeExpiryBroadcast(e.node, cycle) {
		e.reqQ.Push(&noc.Packet{
			ID: e.mesh.NextPacketID(), VNet: noc.GOReq, Src: e.node, SID: e.node,
			Broadcast: true, Flits: 1, Kind: KindExpiry, SrcSeq: ^uint64(0), InjectCycle: cycle,
		})
	}
}

// receive drains the eject link into the reorder buffer (requests) or the
// assembly registers (responses), returning credits immediately.
func (e *Endpoint) receive(cycle uint64) {
	ej := e.mesh.EjectLink(e.node)
	f := ej.Flit(cycle)
	if f == nil {
		return
	}
	switch f.Pkt.VNet {
	case noc.GOReq:
		ej.SendCredit(noc.Credit{VNet: noc.GOReq, VC: f.InVC(), FreeVC: true}, cycle)
		if f.Pkt.Kind != KindExpiry {
			e.term.Arrived(f, cycle)
			if e.auditor != nil {
				e.auditor.Arrive(e.node, f.Pkt.ID, f.Pkt.Src)
			}
			e.reorder.put(f.Pkt.SrcSeq, reorderEntry{pkt: f.Pkt, arrive: cycle})
		}
	case noc.UOResp:
		if p := e.term.Assemble(f, cycle); p != nil {
			e.doneResp.Push(p)
		}
	}
	// The packet (if any) is held by the reorder/assembly state; the link
	// mailbox flit is consumed within this cycle.
}

// deliver forwards the next in-order request (skipping expired keys) and
// assembled responses.
func (e *Endpoint) deliver(cycle uint64) {
	if e.agent == nil {
		return
	}
	// Skip any expired keys.
	for e.orderer.Skippable(e.nextKey, cycle) {
		if _, ok := e.reorder.get(e.nextKey); ok {
			break // a real request occupies the key after all
		}
		e.nextKey++
		e.reorder.advance(e.nextKey)
	}
	if entry, ok := e.reorder.get(e.nextKey); ok {
		if e.agent.AcceptOrderedRequest(entry.pkt, entry.arrive, cycle) {
			if e.tracer != nil {
				e.tracer.Record(obs.Event{
					Cycle: cycle, Type: obs.EvOrderCommit, Node: int32(e.node),
					Src: int32(entry.pkt.Src), Pkt: entry.pkt.ID, Arg: e.nextKey,
					Port: -1, VNet: int8(noc.GOReq), VC: -1,
				})
				e.tracer.Record(obs.Event{
					Cycle: cycle, Type: obs.EvSink, Node: int32(e.node),
					Src: int32(entry.pkt.Src), Pkt: entry.pkt.ID,
					Port: -1, VNet: int8(noc.GOReq), VC: -1,
				})
			}
			if e.auditor != nil {
				e.auditor.OrderCommit(e.node, entry.pkt.ID, entry.pkt.Src, cycle)
				e.auditor.Sink(e.node, entry.pkt.ID, true)
			}
			e.reorder.del(e.nextKey)
			e.nextKey++
			e.reorder.advance(e.nextKey)
			e.Delivered++
			e.OrderingWait.Observe(float64(cycle - entry.arrive))
		}
	}
	if !e.doneResp.Empty() {
		p := e.doneResp.Front()
		if e.agent.AcceptResponse(p, cycle) {
			e.doneResp.PopFront()
			if e.tracer != nil {
				e.tracer.Record(obs.Event{
					Cycle: cycle, Type: obs.EvSink, Node: int32(e.node),
					Src: int32(p.Src), Pkt: p.ID,
					Port: -1, VNet: int8(noc.UOResp), VC: -1,
				})
			}
			if e.auditor != nil {
				e.auditor.Sink(e.node, p.ID, false)
			}
			if e.pool != nil {
				e.pool.Recycle(p)
			}
		}
	}
}

// inject serializes one flit per cycle, requests strictly first: a request
// head with no VC holds back the responses behind it. A packet leaves its
// queue, and counts as injected, once its head is out.
func (e *Endpoint) inject(cycle uint64) {
	if e.term.Busy() {
		e.term.Continue(cycle)
		return
	}
	q := &e.reqQ
	if q.Empty() {
		q = &e.respQ
	}
	if !q.Empty() && e.term.Start(q.Front(), cycle) {
		q.PopFront()
		e.Injected++
	}
}

// HasPendingWork reports whether the endpoint holds any packet that has not
// yet reached its agent (watchdog in-flight signal).
func (e *Endpoint) HasPendingWork() bool {
	return e.reorder.count > 0 || e.doneResp.Len() > 0 || e.reqQ.Len() > 0 ||
		e.respQ.Len() > 0 || e.term.Busy() || len(e.staged) > 0 || len(e.stagedR) > 0
}

// OrderingSnapshot renders the endpoint's reorder state for watchdog dumps.
func (e *Endpoint) OrderingSnapshot() string {
	return fmt.Sprintf("endpoint %d: nextKey=%d reorder=%d doneResp=%d reqQ=%d respQ=%d",
		e.node, e.nextKey, e.reorder.count, e.doneResp.Len(), e.reqQ.Len(), e.respQ.Len())
}
