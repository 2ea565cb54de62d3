package coherence

import (
	"fmt"
	"io"

	"scorpio/internal/cache"
	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/ring"
)

// Requester is the core-facing half of an L2 controller, shared by the
// snoopy L2Controller and the directory machines' L2 so that the two caches
// match by construction (Section 5.1's "all other conditions equal"). It
// owns the array with its side effects (snoop filter, L1 inclusion, the
// auditor's shadow), the staged core queue, the MSHR and writeback tables,
// inject retries, the hit path, fills that write back a dirty victim, and
// completion counting and tracing. The protocol plugs in through Protocol;
// P is the protocol's own per-miss state.
type Requester[P any] struct {
	node       int
	nic        NetPort
	arr        *cache.Array
	rt         *cache.RegionTracker // snoop filter; nil when off
	proto      Protocol[P]
	stats      *ReqStats
	hitLatency uint64
	queueDepth int

	// InvalidateL1 is called whenever inclusion removes a line (optional).
	InvalidateL1 func(addr uint64)
	// OnComplete receives finished core requests.
	OnComplete func(Completion)

	mshrs      []MSHR[P]
	wbs        []*Writeback
	sendQ      SendQ
	coreQ      ring.Ring[coreReq]
	stagedCore []coreReq
	reqIDNext  uint64 // shared by misses and writebacks
	// tracer is nil unless lifecycle tracing is enabled; auditor likewise
	// shadows every cache-array state change when auditing is on.
	tracer  *obs.Tracer
	auditor *audit.Auditor
}

// Protocol is what an L2 plugs into its Requester: the four points at which
// the protocols' messages differ.
type Protocol[P any] interface {
	// MissRequest starts the protocol state m.P of a newly allocated miss
	// and returns its request packet; st is the line's state before it.
	MissRequest(m *MSHR[P], st State, cycle uint64) *noc.Packet
	// MissReady reports whether the miss may complete this cycle.
	MissReady(m *MSHR[P]) bool
	// MissDone installs the miss's line and returns its completion's
	// protocol half: Value, ServedByCache, SelfServed and the Figure 6b/6c
	// breakdown.
	MissDone(m *MSHR[P], cycle uint64) Completion
	// WritebackPackets returns the packets announcing a dirty eviction: the
	// request-class PutM, and the data when it leaves at once (else nil).
	WritebackPackets(wb *Writeback, cycle uint64) (putm, data *noc.Packet)
}

// ReqStats counts the front end's activity: the snoopy L2's Stats embeds it,
// and the directory L2's Stats is one.
type ReqStats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MSHR is one outstanding miss.
type MSHR[P any] struct {
	Addr  uint64
	Issue uint64
	ReqID uint64
	Value uint64 // the value being written (write misses)
	// Pkt is the request until the NIC accepts it, then nil: a delivered
	// unicast request goes back to the pool of the node that took it.
	Pkt *noc.Packet
	// PktID and InjectCycle are the request's, kept for the miss's whole
	// life: InjectCycle starts the breakdown, PktID names it in traces.
	PktID       uint64
	InjectCycle uint64
	// DataCycle is when DataArrived was set: the data response, or the
	// point at which the protocol let the miss proceed without one.
	DataCycle   uint64
	Write       bool
	DataArrived bool
	active      bool
	// P is the protocol's own state for the miss.
	P P
}

// Writeback is one dirty line on its way to memory.
type Writeback struct {
	Addr  uint64
	Value uint64
	ReqID uint64
	// Released marks a buffer that no longer answers for the line:
	// ownership moved on, or memory took the line back.
	Released bool
	// putm and data are the packets the NIC has yet to accept (data is nil
	// too while the protocol holds it back).
	putm, data *noc.Packet
}

// coreReq is a buffered request from the core or trace injector.
type coreReq struct {
	addr  uint64
	write bool
	value uint64
	issue uint64
}

// NewRequester builds the front end of an L2 with mshrs miss registers and a
// core queue of queueDepth; proto is the L2 itself and stats the ReqStats in
// its Stats.
func NewRequester[P any](node int, n NetPort, arr *cache.Array, hitLatency, mshrs, queueDepth int,
	proto Protocol[P], stats *ReqStats) Requester[P] {
	return Requester[P]{
		node: node, nic: n, arr: arr, proto: proto, stats: stats,
		hitLatency: uint64(hitLatency), queueDepth: queueDepth,
		mshrs: make([]MSHR[P], mshrs),
		coreQ: ring.New[coreReq](queueDepth),
	}
}

// Node returns the tile ID.
func (r *Requester[P]) Node() int { return r.node }

// Array exposes the L2 array.
func (r *Requester[P]) Array() *cache.Array { return r.arr }

// SetTracer attaches a lifecycle event tracer (nil disables tracing).
func (r *Requester[P]) SetTracer(t *obs.Tracer) { r.tracer = t }

// SetAuditor attaches the online auditor (nil disables auditing).
func (r *Requester[P]) SetAuditor(a *audit.Auditor) { r.auditor = a }

// ValueOf reports the data value of a resident line (0 if absent).
func (r *Requester[P]) ValueOf(addr uint64) uint64 {
	if ln := r.arr.Lookup(addr); ln != nil {
		return ln.Data
	}
	return 0
}

// LineState reports the coherence state of a line.
func (r *Requester[P]) LineState(addr uint64) State {
	if ln := r.arr.Lookup(addr); ln != nil {
		return State(ln.State)
	}
	return Invalid
}

// Outstanding reports the number of active MSHRs.
func (r *Requester[P]) Outstanding() int {
	n := 0
	for i := range r.mshrs {
		if r.mshrs[i].active {
			n++
		}
	}
	return n
}

// WriteMisses writes one line per outstanding miss, for hang reports: node,
// read or write, line, request ID and issue cycle.
func (r *Requester[P]) WriteMisses(w io.Writer) {
	for i := range r.mshrs {
		if m := &r.mshrs[i]; m.active {
			op := "read"
			if m.Write {
				op = "write"
			}
			fmt.Fprintf(w, "  node %d %s line %#x reqID %d issued at cycle %d\n", r.node, op, m.Addr, m.ReqID, m.Issue)
		}
	}
}

// CoreRequest offers a memory request from the core/trace injector; addr is
// a line address (the AHB adapter in front of the controller performs the
// byte-to-line conversion). It reports false when the request queue is full
// (the injector retries). The request is visible to the controller from the
// next cycle.
func (r *Requester[P]) CoreRequest(addr uint64, write bool, cycle uint64) bool {
	return r.CoreAccess(addr, write, 0, cycle)
}

// CoreAccess is CoreRequest with an explicit data value for stores; reads
// report the observed value through Completion.Value. The consistency
// verification suite (internal/litmus) uses it.
func (r *Requester[P]) CoreAccess(addr uint64, write bool, value uint64, cycle uint64) bool {
	if r.coreQ.Len()+len(r.stagedCore) >= r.queueDepth {
		return false
	}
	r.stagedCore = append(r.stagedCore, coreReq{addr: addr, write: write, value: value, issue: cycle})
	return true
}

// Send schedules p for cycle at, stamping *stamp (if non-nil) at its first
// offer to the NIC.
func (r *Requester[P]) Send(at uint64, p *noc.Packet, stamp *uint64) { r.sendQ.Add(at, p, stamp) }

// Evaluate runs one controller cycle: scheduled sends, inject retries,
// completion checks and core-request processing, in that order.
func (r *Requester[P]) Evaluate(cycle uint64) {
	r.sendQ.Drain(r.nic, cycle)
	r.retryInjects()
	for i := range r.mshrs {
		if m := &r.mshrs[i]; m.active && r.proto.MissReady(m) {
			r.complete(m, cycle)
		}
	}
	r.processCoreQueue(cycle)
}

// Commit merges staged core requests.
func (r *Requester[P]) Commit(cycle uint64) {
	for _, c := range r.stagedCore {
		r.coreQ.Push(c)
	}
	r.stagedCore = r.stagedCore[:0]
}

// Idle implements sim.Idler: the controller may be skipped while it has no
// transaction in any stage — no queued or staged core requests, no active
// MSHR, no writeback in flight, and no due scheduled send. A send whose
// ready cycle is still in the future (an owner serving a request after the
// array access latency) permits parking; NextEventCycle names the send
// cycle. Every other term either makes Evaluate a no-op or is re-established
// only while this tile's unit is running (core requests and NIC deliveries
// both happen inside it; a delivery that completes a miss is acted on at
// the next Evaluate, so an active MSHR keeps the unit live).
func (r *Requester[P]) Idle() bool {
	if len(r.stagedCore) > 0 || !r.coreQ.Empty() || len(r.wbs) > 0 {
		return false
	}
	for i := range r.mshrs {
		if r.mshrs[i].active {
			return false
		}
	}
	return r.sendQ.Idle()
}

// NextEventCycle implements sim.NextEventer: the earliest scheduled send.
func (r *Requester[P]) NextEventCycle(cycle uint64) uint64 { return r.sendQ.NextEventCycle(cycle) }

// retryInjects offers the NIC the requests it refused: misses in slot
// order, then writebacks in list order.
func (r *Requester[P]) retryInjects() {
	for i := range r.mshrs {
		if m := &r.mshrs[i]; m.active && m.Pkt != nil && r.nic.SendRequest(m.Pkt) {
			m.Pkt = nil
		}
	}
	for _, wb := range r.wbs {
		r.offerWriteback(wb)
	}
}

// offerWriteback offers the NIC a writeback's packets it has yet to accept,
// the PutM before the data, and drops each one it takes.
func (r *Requester[P]) offerWriteback(wb *Writeback) {
	if wb.putm != nil && r.nic.SendRequest(wb.putm) {
		wb.putm = nil
	}
	if wb.data != nil && r.nic.SendResponse(wb.data) {
		wb.data = nil
	}
}

// processCoreQueue completes hits and allocates MSHRs for misses, in order.
func (r *Requester[P]) processCoreQueue(cycle uint64) {
	for !r.coreQ.Empty() {
		req := r.coreQ.Front()
		// A same-line transaction in flight stalls the queue head.
		if r.findMSHR(req.addr) != nil || r.FindWB(req.addr) != nil {
			return
		}
		ln := r.arr.Lookup(req.addr)
		st := Invalid
		if ln != nil {
			st = State(ln.State)
		}
		if st != Invalid && (!req.write || st == Modified) {
			r.arr.Touch(req.addr)
			r.stats.Hits++
			if req.write {
				ln.Data = req.value
			}
			if r.OnComplete != nil {
				r.OnComplete(Completion{Addr: req.addr, Write: req.write, Value: ln.Data, Issue: req.issue,
					Done: cycle + r.hitLatency, Hit: true})
			}
			r.coreQ.PopFront()
			continue
		}
		m := r.freeMSHR()
		if m == nil {
			return
		}
		// Upgrades keep their line MRU so a concurrent fill can never evict
		// the very line the in-flight write targets.
		if st != Invalid {
			r.arr.Touch(req.addr)
		}
		r.reqIDNext++
		*m = MSHR[P]{active: true, Addr: req.addr, Write: req.write, Value: req.value, Issue: req.issue,
			ReqID: r.reqIDNext, P: m.P}
		m.Pkt = r.proto.MissRequest(m, st, cycle)
		m.PktID, m.InjectCycle = m.Pkt.ID, m.Pkt.InjectCycle
		if r.tracer != nil {
			r.tracer.Record(obs.Event{
				Cycle: cycle, Type: obs.EvMissStart, Node: int32(r.node),
				Src: int32(r.node), Pkt: m.PktID, Arg: req.addr,
				Port: -1, VNet: -1, VC: -1,
			})
		}
		if r.nic.SendRequest(m.Pkt) {
			m.Pkt = nil
		}
		r.coreQ.PopFront()
	}
}

// complete finishes a miss: the protocol installs the line, then the
// completion is counted, traced and reported, and the MSHR freed.
func (r *Requester[P]) complete(m *MSHR[P], cycle uint64) {
	c := r.proto.MissDone(m, cycle)
	r.stats.Misses++
	if r.tracer != nil {
		r.tracer.Record(obs.Event{
			Cycle: cycle, Type: obs.EvMissDone, Node: int32(r.node),
			Src: int32(r.node), Pkt: m.PktID, Arg: m.Addr,
			Port: -1, VNet: -1, VC: -1,
		})
	}
	if r.OnComplete != nil {
		c.Addr, c.Write, c.Issue, c.Done = m.Addr, m.Write, m.Issue, cycle
		r.OnComplete(c)
	}
	m.active = false
}

// Install places a line holding data in state st, keeping the snoop filter,
// L1 inclusion and the auditor's shadow in step, and writes back a dirty
// victim.
func (r *Requester[P]) Install(addr uint64, st State, data uint64, cycle uint64) {
	ev, did := r.arr.Insert(addr, int32(st), data)
	if r.rt != nil {
		r.rt.NoteFill(addr)
	}
	if r.auditor != nil {
		r.auditState(addr, st, cycle)
	}
	if !did {
		return
	}
	if r.auditor != nil {
		// The evicted line leaves the array; an in-flight writeback still
		// answers for it from its buffer, but for shadow purposes the copy
		// is gone.
		r.auditState(ev.Addr, Invalid, cycle)
	}
	if r.rt != nil {
		r.rt.NoteEvict(ev.Addr)
	}
	if r.InvalidateL1 != nil {
		r.InvalidateL1(ev.Addr)
	}
	if State(ev.State).owner() {
		r.startWriteback(ev.Addr, ev.Data, cycle)
	}
}

// Invalidate removes a line, maintaining the snoop filter, L1 inclusion and
// the auditor's shadow.
func (r *Requester[P]) Invalidate(addr uint64, cycle uint64) {
	if !r.arr.Invalidate(addr) {
		return
	}
	if r.auditor != nil {
		r.auditState(addr, Invalid, cycle)
	}
	if r.rt != nil {
		r.rt.NoteEvict(addr)
	}
	if r.InvalidateL1 != nil {
		r.InvalidateL1(addr)
	}
}

// SetState moves a resident line to st (an owner's downgrade to O_D),
// mirroring it into the auditor's shadow.
func (r *Requester[P]) SetState(ln *cache.Line, st State, cycle uint64) {
	ln.State = int32(st)
	if r.auditor != nil {
		r.auditState(ln.Addr, st, cycle)
	}
}

// auditState mirrors one array-state mutation into the auditor's MOSI
// shadow.
func (r *Requester[P]) auditState(addr uint64, st State, cycle uint64) {
	var as audit.LineState
	switch st {
	case Shared:
		as = audit.LineShared
	case OwnedDirty:
		as = audit.LineOwned
	case Modified:
		as = audit.LineModified
	default:
		as = audit.LineInvalid
	}
	r.auditor.LineState(r.node, addr, as, cycle)
}

// startWriteback announces a dirty eviction with the protocol's packets.
func (r *Requester[P]) startWriteback(addr, value uint64, cycle uint64) {
	r.reqIDNext++
	wb := &Writeback{Addr: addr, Value: value, ReqID: r.reqIDNext}
	wb.putm, wb.data = r.proto.WritebackPackets(wb, cycle)
	r.offerWriteback(wb)
	r.wbs = append(r.wbs, wb)
	r.stats.Writebacks++
}

// AckWriteback retires the writeback a WBAck closes, if still listed.
func (r *Requester[P]) AckWriteback(reqID uint64) {
	if wb := r.findWBByReq(reqID); wb != nil {
		r.freeWB(wb)
	}
}

// findMSHR returns the active miss to a line, or nil.
func (r *Requester[P]) findMSHR(addr uint64) *MSHR[P] {
	for i := range r.mshrs {
		if r.mshrs[i].active && r.mshrs[i].Addr == addr {
			return &r.mshrs[i]
		}
	}
	return nil
}

// FindMSHRByReq returns the active miss with a request ID, or nil.
func (r *Requester[P]) FindMSHRByReq(reqID uint64) *MSHR[P] {
	for i := range r.mshrs {
		if r.mshrs[i].active && r.mshrs[i].ReqID == reqID {
			return &r.mshrs[i]
		}
	}
	return nil
}

// freeMSHR returns the lowest free miss register, or nil.
func (r *Requester[P]) freeMSHR() *MSHR[P] {
	for i := range r.mshrs {
		if !r.mshrs[i].active {
			return &r.mshrs[i]
		}
	}
	return nil
}

// FindWB returns the writeback of a line, or nil.
func (r *Requester[P]) FindWB(addr uint64) *Writeback {
	for _, wb := range r.wbs {
		if wb.Addr == addr {
			return wb
		}
	}
	return nil
}

// findWBByReq returns the writeback with a request ID, or nil.
func (r *Requester[P]) findWBByReq(reqID uint64) *Writeback {
	for _, wb := range r.wbs {
		if wb.ReqID == reqID {
			return wb
		}
	}
	return nil
}

// freeWB drops a finished writeback.
func (r *Requester[P]) freeWB(wb *Writeback) {
	for i, w := range r.wbs {
		if w == wb {
			r.wbs = append(r.wbs[:i], r.wbs[i+1:]...)
			return
		}
	}
}

// Sub returns a-b, clamped at zero (stamps from different clock domains can
// be equal): one segment of a miss's latency breakdown.
func Sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
