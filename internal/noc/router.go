package noc

import (
	"fmt"

	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/slab"
)

// RouterStats counts router activity for results, metrics and tests.
type RouterStats struct {
	FlitsRouted uint64 // flit-traversals through the crossbar (forks count each)
	Bypasses    uint64 // traversals that used the single-cycle bypass path
	AllocStalls uint64 // cycles a head flit lost allocation or lacked a VC/credit
}

// grant describes one (input flit → output port) crossbar traversal decided
// by switch allocation in the current cycle.
type grant struct {
	in     Port
	vnet   VNet
	vcIdx  int
	fv     int // flat VC index of the input VC
	flit   *Flit
	out    Port
	dstVC  int
	isHead bool
}

// Router is one three-stage (single-stage with bypassing) mesh router.
//
// Its state is laid out structure-of-arrays: instead of per-port
// inputUnit/outputUnit objects holding per-VC objects, every per-VC quantity
// lives in one flat slice indexed by the flat VC number
//
//	fv = int(port)*vcsPerPort + idx
//
// where idx enumerates GO-REQ VCs first (including the reserved VC) and then
// UO-RESP VCs — the same order the SA-I round-robin already walked. The VC
// queues are rings of flit values packed in one shared backing array (qbuf),
// so a full router cycle touches a handful of contiguous allocations instead
// of ~50 heap objects.
type Router struct {
	cfg  Config
	id   int
	x, y int

	// Per-port links; nil marks an absent port (mesh edges).
	inLink  [NumPorts]*Link
	outLink [NumPorts]*Link
	// board is the mesh's ESID board (one entry per node, row-major) and
	// cover the rectangle of nodes behind each output port, both read for
	// reserved-VC eligibility.
	board []esidEntry
	cover [NumPorts]rect

	// vcsPerPort is the flat per-port VC count; splitVC the number of GO-REQ
	// VCs (flat indexes below it are GO-REQ, at or above it UO-RESP).
	vcsPerPort int
	splitVC    int

	// Input VC queues: per flat VC a fixed ring of buffered flits occupying
	// qbuf[qoff : qoff+qcap]. qhead is the ring read position, qlen the
	// occupancy. The credit protocol guarantees qcap is never exceeded, so an
	// overflow stays a panic rather than a silent reallocation.
	qbuf  []Flit
	qoff  []int32
	qcap  []int32
	qhead []int32
	qlen  []int32
	// Wormhole route latched by a departing head flit for its body flits.
	vcOutPort []int8
	vcOutVC   []int8

	// trk is the flattened per-output-port credit/VC/SID book-keeping.
	trk trackerTable

	saPtr  [NumPorts]int // SA-O round-robin pointer per output port
	saiPtr [NumPorts]int // SA-I round-robin pointer per input port
	// candBuf holds each input port's SA-I winner for the current cycle,
	// reused across cycles to keep the allocation hot path allocation-free.
	candBuf [NumPorts]candidate
	Stats   RouterStats
	now     uint64
	// buffered counts flits currently held in the input VCs — the router's
	// idle predicate and the mesh-wide occupancy gauge (Mesh.BufferedFlits),
	// maintained incrementally so watchdog polls never rescan the VC rings.
	buffered int
	// tracer is nil unless lifecycle tracing is enabled; every hook site
	// guards on it so the disabled path is one branch. auditor follows the
	// same discipline for the online multicast-fork checker.
	tracer  *obs.Tracer
	auditor *audit.Auditor

	// Routers sit side by side in the mesh's slab and belong to different
	// shards under the parallel kernel; the pad rounds the stride to whole
	// cache lines, so no router's per-cycle writes land on a neighbour's.
	_ [40]byte
}

// SetTracer attaches a lifecycle event tracer (nil disables tracing).
func (r *Router) SetTracer(t *obs.Tracer) { r.tracer = t }

// SetAuditor attaches the online auditor (nil disables auditing).
func (r *Router) SetAuditor(a *audit.Auditor) { r.auditor = a }

// routerSlabs holds the slabs a mesh's routers cut their SoA tables and VC
// rings from.
type routerSlabs struct {
	i32   slab.Slab[int32] // qoff, qcap, qhead, qlen
	i8    slab.Slab[int8]  // vcOutPort, vcOutVC
	flits slab.Slab[Flit]
	trk   *trackerSlabs
}

// makeRouterSlabs sizes the slabs for n routers; trk also holds their
// tracker tables.
func makeRouterSlabs(cfg Config, n int, trk *trackerSlabs) routerSlabs {
	vcs := int(NumPorts) * (cfg.TotalVCs(GOReq) + cfg.TotalVCs(UOResp))
	depth := int(NumPorts) * (cfg.TotalVCs(GOReq)*cfg.BufDepthFor(GOReq) + cfg.TotalVCs(UOResp)*cfg.BufDepthFor(UOResp))
	return routerSlabs{
		i32:   slab.Make[int32](4 * n * vcs),
		i8:    slab.Make[int8](2 * n * vcs),
		flits: slab.Make[Flit](n * depth),
		trk:   trk,
	}
}

// init builds the router at node id with its full SoA tables and VC rings,
// cut from s and sized up front (uniformly for NumPorts ports: absent edge
// ports leave their share unused but keep the flat indexing
// stride-regular); links are attached by the mesh.
func (r *Router) init(cfg Config, id int, board []esidEntry, s *routerSlabs) {
	x, y := cfg.Coord(id)
	r.cfg, r.id, r.x, r.y, r.board = cfg, id, x, y, board
	// The XY multicast subtree behind each output port (see broadcastMask):
	// a branch sent East or West forks into every row of the columns beyond,
	// one sent North or South runs straight along the column. Ports absent
	// at the mesh edge get an empty rectangle and are never asked.
	w, h := cfg.Width, cfg.Height
	r.cover = [NumPorts]rect{
		Local: newRect(x, x, y, y),
		North: newRect(x, x, 0, y-1),
		East:  newRect(x+1, w-1, 0, h-1),
		South: newRect(x, x, y+1, h-1),
		West:  newRect(0, x-1, 0, h-1),
	}
	r.vcsPerPort = cfg.TotalVCs(GOReq) + cfg.TotalVCs(UOResp)
	r.splitVC = cfg.TotalVCs(GOReq)
	n := int(NumPorts) * r.vcsPerPort
	r.qoff = s.i32.Cut(n)
	r.qcap = s.i32.Cut(n)
	r.qhead = s.i32.Cut(n)
	r.qlen = s.i32.Cut(n)
	r.vcOutPort = s.i8.Cut(n)
	r.vcOutVC = s.i8.Cut(n)
	total := 0
	for fv := 0; fv < n; fv++ {
		depth := cfg.BufDepthFor(r.vnetOf(fv % r.vcsPerPort))
		r.qoff[fv] = int32(total)
		r.qcap[fv] = int32(depth)
		total += depth
	}
	r.qbuf = s.flits.Cut(total)
	r.trk = newTrackerTable(cfg, int(NumPorts), s.trk)
}

// vnetOf maps a per-port flat VC index to its virtual network.
func (r *Router) vnetOf(idx int) VNet {
	if idx < r.splitVC {
		return GOReq
	}
	return UOResp
}

// flatVC returns the flat VC index for (port, vnet, vc).
func (r *Router) flatVC(p Port, v VNet, vc int) int {
	fv := int(p)*r.vcsPerPort + vc
	if v == UOResp {
		fv += r.splitVC
	}
	return fv
}

// qFront returns the head slot of a VC queue (qlen must be > 0). The pointer
// stays valid until the slot is popped: the ring never moves.
func (r *Router) qFront(fv int) *Flit {
	return &r.qbuf[r.qoff[fv]+r.qhead[fv]]
}

// qPush copies a flit into the tail slot of a VC queue and returns the slot.
func (r *Router) qPush(fv int, f *Flit) *Flit {
	pos := r.qhead[fv] + r.qlen[fv]
	if pos >= r.qcap[fv] {
		pos -= r.qcap[fv]
	}
	slot := &r.qbuf[r.qoff[fv]+pos]
	*slot = *f
	r.qlen[fv]++
	return slot
}

// qPop zeroes the head slot of a VC queue and advances past it, so no packet
// outlives its flit in the router.
func (r *Router) qPop(fv int) {
	r.qbuf[r.qoff[fv]+r.qhead[fv]] = Flit{}
	r.qhead[fv]++
	if r.qhead[fv] == r.qcap[fv] {
		r.qhead[fv] = 0
	}
	r.qlen[fv]--
}

// ID returns the router's node ID.
func (r *Router) ID() int { return r.id }

// attach wires an input and output link pair for one port.
func (r *Router) attach(p Port, in, out *Link) {
	r.inLink[p] = in
	r.outLink[p] = out
}

// Evaluate runs one cycle of the router: credit processing, buffer write of
// arriving flits, switch allocation, and switch traversal.
func (r *Router) Evaluate(cycle uint64) {
	r.now = cycle
	for p := Port(0); p < NumPorts; p++ {
		ol := r.outLink[p]
		if ol == nil {
			continue
		}
		for _, c := range ol.Credits(cycle) {
			r.trk.processCredit(p, c)
		}
	}
	for p := Port(0); p < NumPorts; p++ {
		il := r.inLink[p]
		if il == nil {
			continue
		}
		if f := il.Flit(cycle); f != nil {
			r.acceptFlit(p, f)
		}
	}
	r.allocate()
}

// Commit implements sim.Component; all router state is updated in Evaluate
// and isolation between routers is provided by the links.
func (r *Router) Commit(cycle uint64) {}

// Idle reports that the router has nothing buffered and nothing arriving
// next cycle on any attached link — the idle-skip predicate. It is only
// consulted after the router executed the current cycle, so r.now names the
// cycle whose late link writes must be checked.
func (r *Router) Idle() bool {
	if r.buffered != 0 {
		return false
	}
	for p := Port(0); p < NumPorts; p++ {
		if il := r.inLink[p]; il != nil && il.FlitPendingAt(r.now) {
			return false
		}
		if ol := r.outLink[p]; ol != nil && ol.CreditsPendingAt(r.now) {
			return false
		}
	}
	return true
}

// acceptFlit performs buffer write (BW) and, for head flits, route
// computation: the link's flit value is copied into the tail slot of the
// addressed input VC.
func (r *Router) acceptFlit(p Port, f *Flit) {
	vnet := f.Pkt.VNet
	if f.Pkt.Broadcast && f.Pkt.Flits != 1 {
		panic(fmt.Sprintf("noc: router %d received multi-flit broadcast %s; broadcasts must be single-flit", r.id, f.Pkt))
	}
	fv := r.flatVC(p, vnet, int(f.inVC))
	ahead := r.qlen[fv]
	if ahead >= r.qcap[fv] {
		panic(fmt.Sprintf("noc: router %d port %s VC overflow — credit protocol violated", r.id, p))
	}
	buf := r.qPush(fv, f)
	buf.arrival = r.now
	buf.bypassCandidate = r.cfg.Bypass && ahead == 0
	if buf.IsHead() {
		if buf.Pkt.Broadcast {
			buf.outPorts = r.broadcastMask(p)
		} else {
			buf.outPorts = portMask(r.routeUnicast(buf.Pkt.Dst))
		}
	}
	r.buffered++
	if r.tracer != nil {
		r.tracer.Record(obs.Event{
			Cycle: r.now, Type: obs.EvBufWrite, Node: int32(r.id),
			Src: int32(buf.Pkt.Src), Pkt: buf.Pkt.ID, Arg: uint64(buf.Seq),
			Port: int8(p), VNet: int8(vnet), VC: buf.inVC,
		})
	}
}

// routeUnicast implements dimension-ordered XY routing.
func (r *Router) routeUnicast(dst int) Port {
	dx, dy := r.cfg.Coord(dst)
	switch {
	case dx > r.x:
		return East
	case dx < r.x:
		return West
	case dy > r.y:
		return South
	case dy < r.y:
		return North
	default:
		return Local
	}
}

// broadcastMask returns the XY multicast-tree output set for a broadcast flit
// that arrived on the given port: the flit travels both ways along the source
// row forking into every column, and straight along columns, delivering a
// local copy at every router except the source (whose NIC loops back its own
// copy internally).
func (r *Router) broadcastMask(arrival Port) uint8 {
	var mask uint8
	add := func(p Port) {
		if r.outLink[p] != nil {
			mask |= portMask(p)
		}
	}
	switch arrival {
	case Local:
		add(East)
		add(West)
		add(North)
		add(South)
	case West:
		add(East)
		add(North)
		add(South)
		add(Local)
	case East:
		add(West)
		add(North)
		add(South)
		add(Local)
	case North:
		add(South)
		add(Local)
	case South:
		add(North)
		add(Local)
	}
	return mask
}

// eligible reports whether a flit may traverse the switch this cycle. A
// lookahead flit (arrived with an empty queue ahead of it) traverses one
// cycle after arrival — a single-stage router. A buffered flit waits out the
// full pipeline (BW/SA-I, SA-O/VS, then ST), i.e. RouterStages cycles from
// arrival to departure.
func (r *Router) eligible(f *Flit) bool {
	if f.bypassCandidate {
		return r.now >= f.arrival+1
	}
	return r.now >= f.arrival+uint64(r.cfg.RouterStages)
}

// candidate is an SA-I winner: the one flit per input port that competes for
// output ports this cycle.
type candidate struct {
	in     Port
	vnet   VNet
	vcIdx  int
	fv     int   // flat VC index
	flit   *Flit // the VC's head slot; valid until dequeue pops it
	wants  uint8 // output ports requested (after resource precheck)
	isRVC  bool
	isHead bool
}

// priorityClass orders candidates: reserved-VC flits beat lookaheads beat
// buffered flits (Section 3.2: lookaheads are prioritized over buffered flits
// except those in reserved VCs).
func (c *candidate) priorityClass() int {
	switch {
	case c.isRVC:
		return 0
	case c.flit.bypassCandidate:
		return 1
	default:
		return 2
	}
}

// allocate performs SA-I, SA-O, VC selection and switch traversal for one
// cycle.
func (r *Router) allocate() {
	var cands [NumPorts]*candidate
	for p := Port(0); p < NumPorts; p++ {
		cands[p] = r.pickInputWinner(p)
	}
	// SA-O: one winner per output port; a multicast candidate may win
	// several output ports in the same cycle (single-cycle forking).
	var winners [NumPorts]*candidate
	for o := Port(0); o < NumPorts; o++ {
		if r.outLink[o] == nil {
			continue
		}
		var best *candidate
		bestRank := 1 << 30
		n := int(NumPorts)
		for k := 0; k < n; k++ {
			pi := r.saPtr[o] + k
			if pi >= n {
				pi -= n
			}
			p := Port(pi)
			c := cands[p]
			if c == nil || c.wants&portMask(o) == 0 {
				continue
			}
			rank := c.priorityClass()*n + k
			if rank < bestRank {
				best = c
				bestRank = rank
			}
		}
		if best != nil {
			winners[o] = best
			r.saPtr[o] = (int(best.in) + 1) % n
		}
	}
	// Switch traversal: claim resources and move flits, port by port.
	// Grants are tracked per input port (each candidate belongs to exactly
	// one), avoiding a per-cycle map and its unordered iteration.
	var granted [NumPorts]uint8
	for o := Port(0); o < NumPorts; o++ {
		c := winners[o]
		if c == nil {
			continue
		}
		g, ok := r.claim(c, o)
		if !ok {
			r.Stats.AllocStalls++
			continue
		}
		r.traverse(g)
		granted[c.in] |= portMask(o)
	}
	// Dequeue flits whose pending output set is exhausted, and demote
	// lookaheads that failed to claim the switch back to the buffered
	// pipeline (Section 3.2). The dequeue (which zeroes the flit's VC slot)
	// must come after the last read of the flit.
	for p := Port(0); p < NumPorts; p++ {
		c := cands[p]
		if c == nil {
			continue
		}
		c.flit.outPorts &^= granted[p]
		if c.flit.bypassCandidate && (granted[p] == 0 || c.flit.outPorts != 0) {
			c.flit.bypassCandidate = false
			r.Stats.AllocStalls++
		}
		if granted[p] != 0 && c.flit.outPorts == 0 {
			r.dequeue(c)
		}
	}
}

// pickInputWinner performs SA-I for one input port: among VCs whose head flit
// is eligible and has at least one serviceable output port, pick the highest
// priority (reserved VC first, then lookaheads, then round-robin buffered).
// The scan walks the port's contiguous flat-VC range in arrival order.
func (r *Router) pickInputWinner(p Port) *candidate {
	if r.inLink[p] == nil {
		return nil
	}
	total := r.vcsPerPort
	split := r.splitVC
	base := int(p) * total
	bestFlat := -1
	var bestWants uint8
	bestRank := 1 << 30
	rvc := r.cfg.ReservedVC(GOReq)
	for k := 0; k < total; k++ {
		idx := r.saiPtr[p] + k
		if idx >= total {
			idx -= total
		}
		fv := base + idx
		if r.qlen[fv] == 0 {
			continue
		}
		f := r.qFront(fv)
		if !r.eligible(f) {
			continue
		}
		wants := r.serviceablePorts(fv, f)
		if wants == 0 {
			r.Stats.AllocStalls++
			continue
		}
		class := 2
		switch {
		case idx < split && idx == rvc:
			class = 0
		case f.bypassCandidate:
			class = 1
		}
		if rank := class*total + k; rank < bestRank {
			bestFlat = idx
			bestWants = wants
			bestRank = rank
		}
	}
	if bestFlat < 0 {
		return nil
	}
	v, i := GOReq, bestFlat
	if bestFlat >= split {
		v, i = UOResp, bestFlat-split
	}
	fv := base + bestFlat
	// The winner lives in the router's reusable per-port buffer: the hot
	// path allocates nothing per cycle.
	c := &r.candBuf[p]
	head := r.qFront(fv)
	*c = candidate{in: p, vnet: v, vcIdx: i, fv: fv, flit: head, wants: bestWants, isRVC: v == GOReq && i == r.cfg.ReservedVC(v), isHead: head.IsHead()}
	if c.priorityClass() == 2 {
		next := bestFlat + 1
		if next >= total {
			next -= total
		}
		r.saiPtr[p] = next
	}
	return c
}

// serviceablePorts filters a flit's pending output ports down to those whose
// downstream resources (VC, credit, SID-tracker clearance) are available this
// cycle.
func (r *Router) serviceablePorts(fv int, f *Flit) uint8 {
	var wants uint8
	if f.IsHead() {
		wants = f.outPorts
	} else {
		wants = portMask(Port(r.vcOutPort[fv]))
	}
	var ok uint8
	for o := Port(0); o < NumPorts; o++ {
		if wants&portMask(o) == 0 {
			continue
		}
		if r.outLink[o] == nil {
			continue
		}
		if f.IsHead() {
			_, reserved, can := r.trk.allocHeadVC(o, f.Pkt.VNet, f.Pkt.SID)
			if can && (!reserved || r.rvcEligible(o, f)) {
				ok |= portMask(o)
			}
		} else if r.trk.canSendBody(o, f.Pkt.VNet, int(r.vcOutVC[fv])) {
			ok |= portMask(o)
		}
	}
	return ok
}

// rect is the node rectangle of columns x0..x1 and rows y0..y1 (inclusive;
// empty when x0 > x1 or y0 > y1).
type rect struct{ x0, x1, y0, y1 int16 }

func newRect(x0, x1, y0, y1 int) rect {
	return rect{int16(x0), int16(x1), int16(y0), int16(y1)}
}

// rvcEligible reports whether a GO-REQ flit may use the reserved VC of the
// downstream input port. The flit must be the exact (SID, sequence) request
// some NIC in this branch's remaining delivery subtree is waiting for; any
// looser rule would let a later same-SID request squat the reserved VC and
// deadlock the expected one behind it. The subtree is a rectangle, so the
// scan reads one contiguous run of the board per row.
func (r *Router) rvcEligible(o Port, f *Flit) bool {
	c := r.cover[o]
	sid, seq := int32(f.Pkt.SID), f.Pkt.SrcSeq
	for y := int(c.y0); y <= int(c.y1); y++ {
		row := y * r.cfg.Width
		for _, e := range r.board[row+int(c.x0) : row+int(c.x1)+1] {
			if e.expects(sid, seq) {
				return true
			}
		}
	}
	return false
}

// claim re-checks and reserves downstream resources for one traversal.
func (r *Router) claim(c *candidate, o Port) (grant, bool) {
	f := c.flit
	if c.isHead {
		vcIdx, reserved, ok := r.trk.allocHeadVC(o, f.Pkt.VNet, f.Pkt.SID)
		if !ok || reserved && !r.rvcEligible(o, f) {
			return grant{}, false
		}
		r.trk.claimHeadVC(o, f.Pkt.VNet, vcIdx, f.Pkt.SID)
		if r.tracer != nil {
			r.tracer.Record(obs.Event{
				Cycle: r.now, Type: obs.EvVCAlloc, Node: int32(r.id),
				Src: int32(f.Pkt.Src), Pkt: f.Pkt.ID, Arg: uint64(vcIdx),
				Port: int8(o), VNet: int8(f.Pkt.VNet), VC: int16(vcIdx),
			})
		}
		return grant{in: c.in, vnet: c.vnet, vcIdx: c.vcIdx, fv: c.fv, flit: f, out: o, dstVC: vcIdx, isHead: true}, true
	}
	dstVC := int(r.vcOutVC[c.fv])
	if !r.trk.canSendBody(o, f.Pkt.VNet, dstVC) {
		return grant{}, false
	}
	r.trk.chargeBody(o, f.Pkt.VNet, dstVC)
	return grant{in: c.in, vnet: c.vnet, vcIdx: c.vcIdx, fv: c.fv, flit: f, out: o, dstVC: dstVC, isHead: false}, true
}

// traverse sends one flit copy through the crossbar onto an output link: a
// 32-byte value copy into the link mailbox, no allocation.
func (r *Router) traverse(g grant) {
	out := *g.flit
	out.inVC = int16(g.dstVC)
	out.outPorts = 0
	r.outLink[g.out].Send(out, r.now)
	g.flit.lastPort = int8(g.out)
	g.flit.lastDstVC = int8(g.dstVC)
	r.Stats.FlitsRouted++
	if g.flit.bypassCandidate {
		r.Stats.Bypasses++
	}
	if r.tracer != nil {
		ty := obs.EvSAGrant
		if g.flit.bypassCandidate {
			ty = obs.EvBypass
		}
		r.tracer.Record(obs.Event{
			Cycle: r.now, Type: ty, Node: int32(r.id),
			Src: int32(g.flit.Pkt.Src), Pkt: g.flit.Pkt.ID, Arg: uint64(g.out),
			Port: int8(g.out), VNet: int8(g.vnet), VC: int16(g.dstVC),
		})
	}
	if r.auditor != nil && g.out == Local {
		// Every local ejection is one fork leaf of the (possibly multicast)
		// packet; the auditor checks each (packet, node) assembly sees every
		// flit exactly once.
		r.auditor.FlitDelivered(r.id, g.flit.Pkt.ID, g.flit.Seq, g.flit.Pkt.Flits)
	}
}

// dequeue removes a fully-serviced flit from its input VC, returns a credit
// upstream, and maintains wormhole state for multi-flit packets.
func (r *Router) dequeue(c *candidate) {
	f := c.flit
	tail := f.IsTail()
	if f.IsHead() && !tail {
		// Record the wormhole route for the packet's body flits. Multi-flit
		// packets are unicast, so there is exactly one granted port: the one
		// the head just traversed.
		r.vcOutPort[c.fv] = f.lastPort
		r.vcOutVC[c.fv] = f.lastDstVC
	}
	r.inLink[c.in].SendCredit(Credit{VNet: c.vnet, VC: c.vcIdx, FreeVC: tail}, r.now)
	// The buffered flit is fully serviced (every output branch traversed a
	// value copy). Popped last: the pop zeroes the slot f points at.
	r.qPop(c.fv)
	r.buffered--
}

// ForEachBufferedFlit calls fn for every flit buffered in the router's input
// VCs (diagnostics and tests).
func (r *Router) ForEachBufferedFlit(fn func(p Port, v VNet, vc int, f *Flit)) {
	for p := Port(0); p < NumPorts; p++ {
		if r.inLink[p] == nil {
			continue
		}
		base := int(p) * r.vcsPerPort
		for idx := 0; idx < r.vcsPerPort; idx++ {
			fv := base + idx
			v, i := GOReq, idx
			if idx >= r.splitVC {
				v, i = UOResp, idx-r.splitVC
			}
			for k := int32(0); k < r.qlen[fv]; k++ {
				pos := r.qhead[fv] + k
				if pos >= r.qcap[fv] {
					pos -= r.qcap[fv]
				}
				fn(p, v, i, &r.qbuf[r.qoff[fv]+pos])
			}
		}
	}
}

// OutputState reports an output port's tracker state for diagnostics; ok is
// false for absent ports.
func (r *Router) OutputState(p Port) (TrackerView, bool) {
	if r.outLink[p] == nil {
		return TrackerView{}, false
	}
	return TrackerView{r: r, p: p}, true
}
