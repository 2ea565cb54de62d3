// Package nic implements SCORPIO's network interface controller (Section 3.4
// of the paper): the block between a tile's coherence agent (L2 cache
// controller or memory controller) and the two physical networks.
//
// On the send path the NIC encapsulates coherence messages into packets,
// injects them into the appropriate virtual network of the main network, and
// announces every globally ordered request on the notification network at a
// later time-window boundary (up to MaxPendingNotifs announcements may be
// outstanding before new requests are back-pressured).
//
// On the receive path the NIC buffers GO-REQ packets arriving in any order
// and releases them to the agent strictly in the global order derived from
// the merged notification vectors: each consumed vector is expanded into an
// Expected Source ID (ESID) sequence by a rotating priority arbiter, and only
// the packet whose SID matches the current ESID may be forwarded; the NICs
// all expand the notification network's one copy of each vector. UO-RESP
// packets are forwarded in arrival order.
//
// A NIC may attach to several main-network meshes (NewNICs): the
// multiple-main-networks throughput extension of Section 5.3, which is
// correct precisely because delivery is decoupled from ordering.
package nic

import (
	"fmt"
	"strings"

	"scorpio/internal/noc"
	"scorpio/internal/notif"
	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/ring"
	"scorpio/internal/sim"
	"scorpio/internal/slab"
	"scorpio/internal/stats"
)

// Agent is the tile-side consumer of delivered packets (an L2 cache
// controller or a memory controller). Implementations must expose committed
// state only: a delivery decision made during the NIC's evaluate phase must
// not depend on agent state mutated in the same cycle.
type Agent interface {
	// AcceptOrderedRequest offers the agent the next GO-REQ packet in global
	// order and reports whether the agent consumed it this cycle. arrive is
	// the cycle the packet reached this node's NIC (broadcast packets are
	// shared objects, so per-node timestamps travel out of band).
	AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool
	// AcceptResponse offers the agent an UO-RESP packet (arrival order) and
	// reports whether the agent consumed it this cycle.
	AcceptResponse(p *noc.Packet, cycle uint64) bool
}

// Recycler takes back a delivered packet once nothing reads it any more: a
// unicast packet at its delivery, a broadcast at its last delivery on any
// node. coherence.Pool implements it.
type Recycler interface {
	Recycle(p *noc.Packet)
}

// Config holds NIC parameters.
type Config struct {
	// Ordered enables global ordering of the GO-REQ class via the
	// notification network. The directory baselines of Section 5 run the
	// identical NoC with ordering disabled ("minus the ordered virtual
	// network GO-REQ and notification network"): requests are then unicast
	// or broadcast and delivered in arrival order.
	Ordered bool
	// MaxPendingNotifs bounds unannounced ordered requests (4 on the chip,
	// Table 1: "max 4 pending messages").
	MaxPendingNotifs int
	// TrackerDepth is the notification tracker queue depth in merged
	// vectors; the stop bit is asserted when the queue is nearly full.
	TrackerDepth int
	// InjectQueueDepth bounds each virtual network's agent-side send queue.
	InjectQueueDepth int
	// EjectOccupancy is the number of extra cycles the ejection path stays
	// busy after delivering a packet to the agent; 0 models the fully
	// pipelined NIC of Section 5.3.
	EjectOccupancy int
	// ReqBufDepth is the NIC-internal holding buffer for out-of-order
	// ordered requests ("it will be buffered in the NIC (or router,
	// depending on the buffer availability at NIC)", Section 3.1). Requests
	// drain from the router-facing VC slots into this buffer, freeing
	// network credits while they wait for their global turn.
	ReqBufDepth int
}

// DefaultConfig returns the chip's NIC parameters.
func DefaultConfig() Config {
	return Config{Ordered: true, MaxPendingNotifs: 4, TrackerDepth: 16, InjectQueueDepth: 8, EjectOccupancy: 0, ReqBufDepth: 16}
}

// UnorderedConfig returns the baseline NIC: the same queues with the
// ordering machinery disabled.
func UnorderedConfig() Config {
	c := DefaultConfig()
	c.Ordered = false
	return c
}

// History returns how many merged vectors the notification network must
// keep for NICs of this configuration: up to TrackerDepth queued behind the
// one being expanded (DESIGN.md §4).
func (c Config) History() int { return c.TrackerDepth + 1 }

// Stats counts NIC activity.
type Stats struct {
	InjectedRequests   uint64
	InjectedResponses  uint64
	DeliveredRequests  uint64
	DeliveredResponses uint64
	SendBlocked        uint64 // SendRequest rejections (notification counter full)
	StoppedResends     uint64 // announcements voided by a stop window
	OrderingLatency    stats.Mean
	NetworkLatency     stats.Mean // injection to NIC arrival, GO-REQ
}

// reqEntry is one buffered GO-REQ packet with its local arrival cycle.
type reqEntry struct {
	pkt    *noc.Packet
	arrive uint64
}

// reqAt locates a buffered request: the front of port's GO-REQ VC vc when
// port is set, else holding-buffer slot hold, or the loopback front when hold
// is negative.
type reqAt struct {
	port *meshPort
	vc   int
	hold int
}

// meshPort is the NIC's attachment to one main-network mesh: its terminal,
// send queues and router-facing VC receive slots. The chip has one; a NIC
// built on several meshes stripes traffic over them (Section 5.3's multiple
// main networks).
type meshPort struct {
	mesh     *noc.Mesh
	term     *noc.Terminal
	reqQ     ring.Ring[*noc.Packet]
	respQ    ring.Ring[*noc.Packet]
	lastVNet noc.VNet

	// reqBuf/respVCBuf mirror the router-facing VC slots; the credit protocol
	// bounds their occupancy to the configured buffer depths, so the rings are
	// fixed-capacity. arrivalQ is bounded only by total VC occupancy, so it
	// stays growable (pre-sized to the total GO-REQ slot count).
	reqBuf    []ring.Ring[reqEntry]
	respVCBuf []ring.Ring[noc.Flit]
	arrivalQ  ring.Ring[int] // unordered mode: VC indexes in arrival order

	// Extra meshes' ports of different nodes sit side by side in one slab
	// and belong to different shards; the pad rounds the stride to whole
	// cache lines.
	_ [40]byte
}

// slabs holds what a set of NICs cuts its extra mesh ports, rings and order
// state from: one slice per kind for the whole set. Each NIC holds its first
// mesh port inline.
type slabs struct {
	ports     slab.Slab[meshPort]
	portPtrs  slab.Slab[*meshPort]
	pkts      slab.Slab[*noc.Packet] // reqQ, respQ, doneResp, send staging
	loopback  slab.Slab[*noc.Packet]
	reqs      slab.Slab[reqEntry] // reqBuf rings, then reqHold
	reqRings  slab.Slab[ring.Ring[reqEntry]]
	flits     slab.Slab[noc.Flit]
	flitRings slab.Slab[ring.Ring[noc.Flit]]
	vcs       slab.Slab[int]    // arrivalQ
	seqs      slab.Slab[uint64] // deliveredSeq
}

// makeSlabs sizes the slabs for nics NICs of configuration cfg, each
// attached to meshes meshes of configuration net and, when ordered, to
// nnet. The global-order state (holding buffer, loopback, delivered
// sequences) is sized only for ordered NICs: an unordered one never
// touches it.
func makeSlabs(cfg Config, net noc.Config, nnet *notif.Network, nics, meshes int) slabs {
	goVCs, uoVCs := net.TotalVCs(noc.GOReq), net.TotalVCs(noc.UOResp)
	ports, held := nics*meshes, 0
	if cfg.Ordered {
		held = nics * ring.Slots(cfg.ReqBufDepth)
	}
	s := slabs{
		ports:     slab.Make[meshPort](ports - nics),
		portPtrs:  slab.Make[*meshPort](ports),
		pkts:      slab.Make[*noc.Packet](ports*2*ring.Slots(cfg.InjectQueueDepth) + nics*(ring.Slots(doneRespSlots)+2*cfg.InjectQueueDepth)),
		reqs:      slab.Make[reqEntry](ports*goVCs*ring.Slots(net.GOReqBufDepth) + held),
		reqRings:  slab.Make[ring.Ring[reqEntry]](ports * goVCs),
		flits:     slab.Make[noc.Flit](ports * uoVCs * ring.Slots(net.UORespBufDepth)),
		flitRings: slab.Make[ring.Ring[noc.Flit]](ports * uoVCs),
		vcs:       slab.Make[int](ports * ring.Slots(goVCs*net.GOReqBufDepth)),
	}
	if cfg.Ordered {
		if nnet == nil {
			panic("nic: ordered mode requires a notification network")
		}
		s.loopback = slab.Make[*noc.Packet](nics * cfg.loopbackDepth(nnet.Config().MaxPerWindow()))
		s.seqs = slab.Make[uint64](nics * net.Nodes())
	}
	return s
}

// loopbackDepth bounds a NIC's own requests awaiting their own order: up to
// MaxPendingNotifs unannounced, a window's offer in flight, and a window's
// worth in each of the History() vectors a NIC may hold.
func (c Config) loopbackDepth(perWindow int) int {
	return c.MaxPendingNotifs + perWindow*(c.TrackerDepth+2)
}

// cutRing cuts a ring of the expected capacity from s.
func cutRing[T any](s *slab.Slab[T], capacity int) ring.Ring[T] {
	return ring.In(s.Cut(ring.Slots(capacity)))
}

// cutFixed cuts a fixed-capacity ring from s.
func cutFixed[T any](s *slab.Slab[T], capacity int) ring.Ring[T] {
	return ring.FixedIn(s.Cut(ring.Slots(capacity)))
}

// init attaches p to node's terminal on mesh, its queues cut from s.
func (p *meshPort) init(cfg Config, mesh *noc.Mesh, node int, s *slabs) {
	net := mesh.Config()
	p.mesh = mesh
	p.term = mesh.Terminal(node)
	p.reqQ = cutRing(&s.pkts, cfg.InjectQueueDepth)
	p.respQ = cutRing(&s.pkts, cfg.InjectQueueDepth)
	p.reqBuf = s.reqRings.Cut(net.TotalVCs(noc.GOReq))
	for i := range p.reqBuf {
		p.reqBuf[i] = cutFixed(&s.reqs, net.GOReqBufDepth)
	}
	p.respVCBuf = s.flitRings.Cut(net.TotalVCs(noc.UOResp))
	for i := range p.respVCBuf {
		p.respVCBuf[i] = cutFixed(&s.flits, net.UORespBufDepth)
	}
	p.arrivalQ = cutRing(&s.vcs, net.TotalVCs(noc.GOReq)*net.GOReqBufDepth)
}

// NIC is one tile's network interface controller.
type NIC struct {
	cfg    Config
	node   int
	ports  []*meshPort // port0, then any extra meshes' ports
	port0  meshPort
	sendRR int // stripes injected packets across ports
	nnet   *notif.Network
	agent  Agent
	netCfg noc.Config
	ncfg   notif.Config
	ownSID int
	// pool takes back every packet whose last delivery happens here (nil
	// keeps them): each unicast packet the agent accepts, and each
	// broadcast this node is the last to deliver.
	pool  Recycler
	Stats Stats

	// Send staging (committed into port queues for determinism), cut at
	// InjectQueueDepth, which SendRequest and SendResponse never exceed.
	stagedReq  []*noc.Packet
	stagedResp []*noc.Packet

	// Notification send state.
	unannounced  int // accepted ordered requests not yet announced
	offerCount   int // committed offer for the upcoming window start
	offerStop    bool
	announcedLag int // announcements whose merged vector has not returned yet

	// Receive path.
	reqHold  ring.Ring[reqEntry]    // NIC-internal out-of-order holding buffer
	doneResp ring.Ring[*noc.Packet] // assembled responses awaiting the agent
	loopback ring.Ring[*noc.Packet] // own broadcast requests awaiting own global order
	// Global-order state. The tracker queue is vectors expanded..received-1
	// of the notification network's history; the cursor walks vector
	// expanded-1: esid is the expected source, left its requests still due,
	// and wrapped marks the walk's second half.
	received, expanded uint64
	esid, left         int
	wrapped            bool
	busy               int      // ejection occupancy countdown
	srcSeqNext         uint64   // next sequence number for own ordered requests
	deliveredSeq       []uint64 // per source: ordered requests already delivered here

	// check is the machine's global-order check (nil checks nothing).
	// tracer is nil unless lifecycle tracing is enabled; every hook site
	// guards on it so the disabled path is one branch. auditor follows the
	// same discipline for the online order/coherence monitor.
	check   *audit.OrderCheck
	tracer  *obs.Tracer
	auditor *audit.Auditor

	// Activity-driven scheduling state. now is the cycle of the NIC's last
	// Evaluate; Idle() uses it to check the attached links for in-flight
	// values (see sim.Idler — Idle is only consulted for units that executed
	// the just-finished cycle, so now is always current there). notifAct is
	// the notification network's scheduling unit: a NIC with a pending offer
	// wakes it for the next window start so a quiescent OR-mesh still samples
	// the offer.
	now      uint64
	notifAct *sim.Activity

	// NICs sit side by side in one slab and belong to different shards; the
	// pad rounds the stride to whole cache lines.
	_ [32]byte
}

// doneRespSlots is the expected depth of the assembled-response queue.
const doneRespSlots = 4

// NewNICs builds one NIC per node of meshes[0], each attached to every mesh
// of meshes (injected packets stripe round-robin across them) and to nnet,
// which may be nil when cfg.Ordered is false. The NICs, their mesh ports and
// every ring they hold are cut from one slice per kind. Agents are attached
// afterwards with SetAgent.
func NewNICs(cfg Config, meshes []*noc.Mesh, nnet *notif.Network) []NIC {
	nodes := meshes[0].Config().Nodes()
	s := makeSlabs(cfg, meshes[0].Config(), nnet, nodes, len(meshes))
	nics := make([]NIC, nodes)
	for node := range nics {
		nics[node].init(node, cfg, meshes, nnet, &s)
	}
	return nics
}

// New builds a single NIC for the given node on one mesh and wires it to
// the two networks, as NewNICs does for a machine. The agent may be nil
// initially and set later with SetAgent (systems with circular construction
// order need this). nnet may be nil when cfg.Ordered is false.
func New(node int, cfg Config, mesh *noc.Mesh, nnet *notif.Network, agent Agent) *NIC {
	meshes := []*noc.Mesh{mesh}
	s := makeSlabs(cfg, mesh.Config(), nnet, 1, 1)
	n := &NIC{agent: agent}
	n.init(node, cfg, meshes, nnet, &s)
	return n
}

// init builds node's NIC on meshes, cut from s.
func (n *NIC) init(node int, cfg Config, meshes []*noc.Mesh, nnet *notif.Network, s *slabs) {
	n.cfg, n.node, n.nnet, n.ownSID = cfg, node, nnet, node
	n.netCfg = meshes[0].Config()
	n.ports = s.portPtrs.Cut(len(meshes))
	for i, mesh := range meshes {
		p := &n.port0
		if i > 0 {
			p = s.ports.Next()
		}
		p.init(cfg, mesh, node, s)
		n.ports[i] = p
	}
	n.doneResp = cutRing(&s.pkts, doneRespSlots)
	n.stagedReq = s.pkts.Cut(cfg.InjectQueueDepth)[:0]
	n.stagedResp = s.pkts.Cut(cfg.InjectQueueDepth)[:0]
	if nnet != nil {
		n.ncfg = nnet.Config()
		nnet.AttachSource(node, n)
	}
	if cfg.Ordered {
		n.reqHold = cutFixed(&s.reqs, cfg.ReqBufDepth)
		n.deliveredSeq = s.seqs.Cut(n.netCfg.Nodes())
		n.loopback = cutRing(&s.loopback, cfg.loopbackDepth(n.ncfg.MaxPerWindow()))
	}
}

// Meshes reports the number of attached main networks.
func (n *NIC) Meshes() int { return len(n.ports) }

// SetAgent attaches the tile-side consumer.
func (n *NIC) SetAgent(a Agent) { n.agent = a }

// SetRecycler hands every packet whose last delivery happens here to r,
// once the NIC's own stats, tracer and auditor have read it: the machine's
// message pool.
func (n *NIC) SetRecycler(r Recycler) { n.pool = r }

// SetTracer attaches a lifecycle event tracer (nil disables tracing).
func (n *NIC) SetTracer(t *obs.Tracer) {
	n.tracer = t
	for _, port := range n.ports {
		port.term.SetTracer(t)
	}
}

// SetAuditor attaches the online auditor (nil disables auditing).
func (n *NIC) SetAuditor(a *audit.Auditor) { n.auditor = a }

// SetOrderCheck reports every ordered request the agent accepts to c.
func (n *NIC) SetOrderCheck(c *audit.OrderCheck) { n.check = c }

// Node returns the NIC's node ID.
func (n *NIC) Node() int { return n.node }

// NotificationOffer implements notif.Source with committed state.
func (n *NIC) NotificationOffer() (int, bool) { return n.offerCount, n.offerStop }

// queuedReqs counts requests staged or queued across all ports.
func (n *NIC) queuedReqs() int {
	total := len(n.stagedReq)
	for _, p := range n.ports {
		total += p.reqQ.Len()
	}
	return total
}

func (n *NIC) queuedResps() int {
	total := len(n.stagedResp)
	for _, p := range n.ports {
		total += p.respQ.Len()
	}
	return total
}

// SendRequest enqueues a request-class packet for injection. In ordered
// mode it must be a single-flit GO-REQ broadcast and is announced on the
// notification network; in unordered (baseline) mode unicast requests are
// also allowed and no announcement happens. It reports false when the
// notification counter or the send queue is full; the agent retries later.
func (n *NIC) SendRequest(p *noc.Packet) bool {
	if p.VNet != noc.GOReq || p.Flits != 1 {
		panic(fmt.Sprintf("nic: SendRequest wants a single-flit GO-REQ packet, got %s", p))
	}
	if n.cfg.Ordered && !p.Broadcast {
		panic(fmt.Sprintf("nic: ordered requests must be broadcast, got %s", p))
	}
	if p.SID != n.ownSID {
		panic(fmt.Sprintf("nic: node %d injecting SID %d", n.node, p.SID))
	}
	if !n.cfg.Ordered {
		if n.queuedReqs() >= n.cfg.InjectQueueDepth {
			n.Stats.SendBlocked++
			return false
		}
		if p.Broadcast {
			// Every other node delivers it; the source never sees its own.
			p.ExpectDeliveries(n.netCfg.Nodes() - 1)
		}
		n.stagedReq = append(n.stagedReq, p)
		return true
	}
	if n.unannounced+len(n.stagedReq) >= n.cfg.MaxPendingNotifs || n.queuedReqs() >= n.cfg.InjectQueueDepth {
		n.Stats.SendBlocked++
		return false
	}
	p.SrcSeq = n.srcSeqNext
	n.srcSeqNext++
	// N-1 nodes deliver it off the mesh, and this one from its loopback.
	p.ExpectDeliveries(n.netCfg.Nodes())
	n.stagedReq = append(n.stagedReq, p)
	return true
}

// SendResponse enqueues an unordered response for injection. It reports
// false when the send queue is full.
func (n *NIC) SendResponse(p *noc.Packet) bool {
	if p.VNet != noc.UOResp || p.Broadcast {
		panic(fmt.Sprintf("nic: SendResponse wants a unicast UO-RESP packet, got %s", p))
	}
	if n.queuedResps() >= n.cfg.InjectQueueDepth {
		return false
	}
	n.stagedResp = append(n.stagedResp, p)
	return true
}

// BindActivity wires the NIC's scheduling unit as the wake target of its
// attached links: inject-link credits and eject-link flits both wake it.
func (n *NIC) BindActivity(a *sim.Activity) {
	for _, port := range n.ports {
		port.term.Bind(a)
	}
}

// SetNotifActivity wires the notification network's scheduling unit so a NIC
// holding a pending offer (or stop bit) can wake it for the window start
// where the OR-mesh samples the offer.
func (n *NIC) SetNotifActivity(a *sim.Activity) { n.notifAct = a }

// Evaluate runs one NIC cycle.
func (n *NIC) Evaluate(cycle uint64) {
	n.now = cycle
	for _, port := range n.ports {
		port.term.TakeCredits(cycle)
	}
	if n.cfg.Ordered {
		n.processNotifications(cycle)
	}
	n.receive(cycle)
	n.deliver(cycle)
	for _, port := range n.ports {
		n.inject(port, cycle)
	}
}

// Commit latches staged sends (striping them across the attached meshes)
// and the registered outputs other components sample (the ESID board, the
// notification offer for the OR-mesh).
func (n *NIC) Commit(cycle uint64) {
	for _, p := range n.stagedReq {
		port := n.ports[n.sendRR%len(n.ports)]
		n.sendRR++
		port.reqQ.Push(p)
		if n.cfg.Ordered {
			n.loopback.Push(p)
			n.unannounced++
		}
	}
	n.stagedReq = n.stagedReq[:0]
	for _, p := range n.stagedResp {
		port := n.ports[n.sendRR%len(n.ports)]
		n.sendRR++
		port.respQ.Push(p)
	}
	n.stagedResp = n.stagedResp[:0]
	// Registered ESID output: the exact (SID, sequence) occurrence expected,
	// published on every attached mesh's ESID board.
	var sid int
	var seq uint64
	active := n.left > 0
	if active {
		sid = n.esid
		seq = n.deliveredSeq[sid]
	}
	for _, port := range n.ports {
		port.mesh.PublishESID(n.node, sid, seq, active)
	}
	// Registered notification offer for the next window start. The vector
	// being expanded into ESIDs still occupies a slot, so it counts toward
	// the nearly-full threshold that asserts the stop bit.
	occupancy := int(n.received - n.expanded)
	if active {
		occupancy++
	}
	stop := occupancy >= n.cfg.TrackerDepth-1
	count := 0
	if !stop {
		count = n.unannounced
		if m := n.ncfg.MaxPerWindow(); count > m {
			count = m
		}
	}
	n.offerCount, n.offerStop = count, stop
	// The OR-mesh samples this offer at the next window start; make sure the
	// notification network is awake to latch it even if every other source
	// is quiet.
	if n.cfg.Ordered && (count > 0 || stop) {
		w := uint64(n.ncfg.Window())
		n.notifAct.Wake((cycle/w+1)*w, sim.WakeNotif)
	}
}

// Idle implements sim.Idler: the NIC may be skipped while it holds no
// packets, owes no notification work, and no value is in flight on its
// links. Each term is load-bearing — unannounced/offer state means a window
// start must run here; announcedLag means a merged vector is due back;
// left and received > expanded mean ESID delivery is in progress or queued;
// busy is the ejection occupancy countdown; the link checks catch values
// committed this cycle that arrive next cycle (the wake edge was dropped
// because this unit was still active when the sender called Wake).
func (n *NIC) Idle() bool {
	if n.busy > 0 || n.left > 0 || n.received > n.expanded {
		return false
	}
	if n.unannounced > 0 || n.announcedLag > 0 || n.offerCount > 0 || n.offerStop {
		return false
	}
	if n.HasPendingWork() {
		return false
	}
	if n.cfg.Ordered {
		// A merged vector is readable exactly one cycle after a window
		// delivers; every NIC must run that cycle to expand its ESID
		// sequence. The OR-mesh's delivery wake is edge-triggered and was
		// dropped if this unit was still active when it fired, so the
		// committed delivery flag must be re-checked here.
		if _, ok := n.nnet.Delivered(); ok {
			return false
		}
	}
	for _, port := range n.ports {
		if !port.term.Quiet(n.now) {
			return false
		}
	}
	return true
}

// processNotifications handles window boundaries: consuming the merged
// vector of the window that just ended and accounting for the offer the
// OR-mesh samples at the window starting now.
func (n *NIC) processNotifications(cycle uint64) {
	if v, ok := n.nnet.Delivered(); ok {
		if v.Stop {
			// The whole window is voided; re-arm our own announcements.
			n.unannounced += n.announcedLag
			n.Stats.StoppedResends += uint64(n.announcedLag)
		} else if n.received-n.expanded >= uint64(n.cfg.TrackerDepth) {
			panic(fmt.Sprintf("nic: node %d notification tracker overflow", n.node))
		} else {
			n.received++
		}
		n.announcedLag = 0
	}
	if n.nnet.WindowStart(cycle) {
		// Our committed offer is being sampled by the OR-mesh right now.
		n.unannounced -= n.offerCount
		if n.unannounced < 0 {
			panic("nic: announced more requests than pending")
		}
		if n.tracer != nil && n.offerCount > 0 {
			n.tracer.Record(obs.Event{
				Cycle: cycle, Type: obs.EvNotifSend, Node: int32(n.node),
				Src: int32(n.node), Arg: uint64(n.offerCount),
				Port: -1, VNet: -1, VC: -1,
			})
		}
		n.announcedLag = n.offerCount
	}
	// Expand the next vector once the current ESID sequence is exhausted.
	if n.left == 0 && n.expanded < n.received {
		n.expanded++
		n.wrapped = false
		n.seek(n.walkStart())
	}
}

// walkStart is source i mod N for vector i: the rotating-priority arbiter
// moves one source per expanded vector (fairness across windows, §3.1).
func (n *NIC) walkStart() int { return int((n.expanded - 1) % uint64(n.ncfg.Nodes())) }

// seek moves the cursor to the first source at or after from that
// announced requests in the vector being expanded, walking start..N-1 and
// then 0..start-1; left is 0 once the walk is done. NextFrom skips zero
// words whole, so a walk costs O(announcing cores + words), not O(nodes).
func (n *NIC) seek(from int) {
	v, ok := n.nnet.Merged(n.expanded - 1)
	if !ok {
		panic(fmt.Sprintf("nic: node %d reads merged vector %d, which the notification history no longer holds", n.node, n.expanded-1))
	}
	sid, c := v.NextFrom(from)
	if sid < 0 && !n.wrapped {
		n.wrapped = true
		sid, c = v.NextFrom(0)
	}
	if n.wrapped && sid >= n.walkStart() {
		c = 0
	}
	n.esid, n.left = sid, c
}

// receive buffers flits arriving from every port's local output port and,
// unless the ejection path is busy, drains response flits into the packet
// assembly registers (returning their credits).
func (n *NIC) receive(cycle uint64) {
	for _, port := range n.ports {
		ej := port.mesh.EjectLink(n.node)
		if f := ej.Flit(cycle); f != nil {
			switch f.Pkt.VNet {
			case noc.GOReq:
				vc := f.InVC()
				if port.reqBuf[vc].Len() >= n.netCfg.GOReqBufDepth {
					panic(fmt.Sprintf("nic: node %d GO-REQ VC %d overflow", n.node, vc))
				}
				n.Stats.NetworkLatency.Observe(float64(cycle - f.Pkt.NetworkEntry))
				port.term.Arrived(f, cycle)
				if n.auditor != nil {
					n.auditor.Arrive(n.node, f.Pkt.ID, f.Pkt.Src)
				}
				// The entry carries the packet; the link mailbox flit is done.
				port.reqBuf[vc].Push(reqEntry{pkt: f.Pkt, arrive: cycle})
				if !n.cfg.Ordered {
					port.arrivalQ.Push(vc)
				}
			case noc.UOResp:
				// Copy the flit value out of the link mailbox: the slot is
				// rewritten next cycle, but assembly may drain this VC later.
				port.respVCBuf[f.InVC()].Push(*f)
			}
		}
		// Drain ordered requests from the VC slots into the NIC holding
		// buffer, returning their network credits (ordered mode only; the
		// unordered baselines deliver straight from the VC slots).
		if n.cfg.Ordered {
			for vc := range port.reqBuf {
				if !port.reqBuf[vc].Empty() && n.reqHold.Len() < n.cfg.ReqBufDepth {
					n.reqHold.Push(port.reqBuf[vc].PopFront())
					ej.SendCredit(noc.Credit{VNet: noc.GOReq, VC: vc, FreeVC: true}, cycle)
				}
			}
		}
		if n.busy > 0 {
			continue
		}
		// Drain buffered response flits (one read port per VC).
		for vc := range port.respVCBuf {
			if port.respVCBuf[vc].Empty() {
				continue
			}
			f := port.respVCBuf[vc].PopFront()
			if p := port.term.Assemble(&f, cycle); p != nil {
				n.doneResp.Push(p)
			}
		}
	}
}

// deliver forwards packets to the agent: one request-class packet on the
// snoop channel (AC) and, independently, one assembled response on the data
// channels — the AMBA ACE interface of Figure 4 carries them in parallel.
func (n *NIC) deliver(cycle uint64) {
	if n.busy > 0 {
		n.busy--
		return
	}
	if n.agent == nil {
		return
	}
	delivered := false
	// Unordered (baseline) mode: requests flow in arrival order per port.
	if !n.cfg.Ordered {
		for _, port := range n.ports {
			if port.arrivalQ.Empty() {
				continue
			}
			vc := port.arrivalQ.Front()
			e := port.reqBuf[vc].Front()
			if n.agent.AcceptOrderedRequest(e.pkt, e.arrive, cycle) {
				port.arrivalQ.PopFront()
				n.take(reqAt{port: port, vc: vc}, cycle)
				n.Stats.DeliveredRequests++
				n.sink(e.pkt, noc.GOReq, false, cycle)
				delivered = true
			}
			break
		}
	}
	// Ordered mode: only the globally expected request may pass.
	if n.cfg.Ordered && n.left > 0 {
		sid := n.esid
		if e, at, ok := n.expectedPacket(sid); ok && n.agent.AcceptOrderedRequest(e.pkt, e.arrive, cycle) {
			p := e.pkt
			n.check.Commit(n.node, p.ID, cycle)
			n.take(at, cycle)
			if n.tracer != nil {
				n.tracer.Record(obs.Event{
					Cycle: cycle, Type: obs.EvOrderCommit, Node: int32(n.node),
					Src: int32(p.Src), Pkt: p.ID, Arg: n.deliveredSeq[sid],
					Port: -1, VNet: int8(noc.GOReq), VC: -1,
				})
			}
			if n.auditor != nil {
				n.auditor.OrderCommit(n.node, p.ID, p.Src, cycle)
			}
			n.sink(p, noc.GOReq, true, cycle)
			n.deliveredSeq[sid]++
			n.Stats.DeliveredRequests++
			n.Stats.OrderingLatency.Observe(float64(cycle - e.arrive))
			if n.left--; n.left == 0 {
				n.seek(sid + 1)
			}
			delivered = true
		}
	}
	// Assembled responses flow on the parallel data channels.
	if !n.doneResp.Empty() {
		p := n.doneResp.Front()
		if n.agent.AcceptResponse(p, cycle) {
			n.doneResp.PopFront()
			n.Stats.DeliveredResponses++
			n.sink(p, noc.UOResp, false, cycle)
			delivered = true
		}
	}
	if delivered {
		n.busy = n.cfg.EjectOccupancy
	}
}

// sink records p's delivery to the agent for the tracer and the auditor,
// then counts it toward p's recycling: the pool takes p back at its last
// delivery, a unicast packet's only one or a broadcast's final one on any
// node. It is the last read of p on this node.
func (n *NIC) sink(p *noc.Packet, vnet noc.VNet, ordered bool, cycle uint64) {
	if n.tracer != nil {
		n.tracer.Record(obs.Event{
			Cycle: cycle, Type: obs.EvSink, Node: int32(n.node),
			Src: int32(p.Src), Pkt: p.ID,
			Port: -1, VNet: int8(vnet), VC: -1,
		})
	}
	if n.auditor != nil {
		n.auditor.Sink(n.node, p.ID, ordered)
	}
	if p.Delivered() && n.pool != nil {
		n.pool.Recycle(p)
	}
}

// expectedPacket finds the exact (SID, sequence) occurrence the global order
// expects, searching the loopback queue (own requests), the holding buffer,
// and the router-facing VC slots of every port, and reports where it sits.
func (n *NIC) expectedPacket(sid int) (reqEntry, reqAt, bool) {
	seq := n.deliveredSeq[sid]
	if sid == n.ownSID {
		if !n.loopback.Empty() && n.loopback.Front().SrcSeq == seq {
			p := n.loopback.Front()
			return reqEntry{pkt: p, arrive: p.InjectCycle}, reqAt{hold: -1}, true
		}
		return reqEntry{}, reqAt{}, false
	}
	for i := 0; i < n.reqHold.Len(); i++ {
		if e := n.reqHold.At(i); e.pkt.SID == sid && e.pkt.SrcSeq == seq {
			return e, reqAt{hold: i}, true
		}
	}
	for _, port := range n.ports {
		for vc := range port.reqBuf {
			buf := &port.reqBuf[vc]
			if !buf.Empty() && buf.Front().pkt.SID == sid && buf.Front().pkt.SrcSeq == seq {
				return buf.Front(), reqAt{port: port, vc: vc}, true
			}
		}
	}
	return reqEntry{}, reqAt{}, false
}

// take removes a delivered request from where it sits, returning a credit to
// the router when it still occupied a VC slot.
func (n *NIC) take(at reqAt, cycle uint64) {
	switch {
	case at.port != nil:
		at.port.reqBuf[at.vc].PopFront()
		at.port.mesh.EjectLink(n.node).SendCredit(noc.Credit{VNet: noc.GOReq, VC: at.vc, FreeVC: true}, cycle)
	case at.hold >= 0:
		n.reqHold.RemoveAt(at.hold)
	default:
		n.loopback.PopFront()
	}
}

// inject serializes at most one flit per cycle into one port's router,
// alternating between the two virtual networks when both have traffic. A
// packet leaves its queue once its tail is out, so a packet in flight still
// counts against InjectQueueDepth.
func (n *NIC) inject(port *meshPort, cycle uint64) {
	if port.term.Busy() {
		if p := port.term.Continue(cycle); p != nil {
			n.finishInjection(port, p.VNet)
		}
		return
	}
	first, second := noc.GOReq, noc.UOResp
	if port.lastVNet == noc.GOReq {
		first, second = second, first
	}
	for _, v := range [...]noc.VNet{first, second} {
		q := &port.reqQ
		if v != noc.GOReq {
			q = &port.respQ
		}
		if !q.Empty() && port.term.Start(q.Front(), cycle) {
			port.lastVNet = v
			if !port.term.Busy() {
				n.finishInjection(port, v)
			}
			return
		}
	}
}

// finishInjection pops the fully serialized packet off its queue.
func (n *NIC) finishInjection(port *meshPort, v noc.VNet) {
	if v == noc.GOReq {
		port.reqQ.PopFront()
		n.Stats.InjectedRequests++
	} else {
		port.respQ.PopFront()
		n.Stats.InjectedResponses++
	}
}

// HasPendingWork reports whether the NIC holds any packet that has not yet
// reached its agent: queued or in-flight sends, out-of-order held requests,
// loopback copies, or assembled responses. The watchdog combines it with
// router buffer occupancy to distinguish a stall from quiescence (an
// ordering deadlock can leave the mesh empty while requests rot in NIC
// buffers).
func (n *NIC) HasPendingWork() bool {
	if n.reqHold.Len() > 0 || n.loopback.Len() > 0 || n.doneResp.Len() > 0 {
		return true
	}
	if len(n.stagedReq) > 0 || len(n.stagedResp) > 0 {
		return true
	}
	for _, port := range n.ports {
		if port.reqQ.Len() > 0 || port.respQ.Len() > 0 || port.term.Busy() || port.arrivalQ.Len() > 0 {
			return true
		}
		for vc := range port.reqBuf {
			if port.reqBuf[vc].Len() > 0 {
				return true
			}
		}
		for vc := range port.respVCBuf {
			if port.respVCBuf[vc].Len() > 0 {
				return true
			}
		}
	}
	return false
}

// OrderingSnapshot renders the NIC's global-order state for watchdog dumps:
// the committed ESID, the active ESID run, tracker/holding-buffer occupancy
// and the per-source delivered sequence front.
func (n *NIC) OrderingSnapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nic %d:", n.node)
	if sid, seq, ok := n.ports[0].mesh.ESID(n.node); ok {
		fmt.Fprintf(&b, " expecting sid=%d seq=%d", sid, seq)
	} else {
		b.WriteString(" no active ESID sequence")
	}
	if n.left > 0 {
		fmt.Fprintf(&b, " (vector %d: sid=%d count=%d)", n.expanded-1, n.esid, n.left)
	}
	fmt.Fprintf(&b, " tracker=%d reqHold=%d loopback=%d doneResp=%d unannounced=%d announcedLag=%d",
		n.received-n.expanded, n.reqHold.Len(), n.loopback.Len(), n.doneResp.Len(), n.unannounced, n.announcedLag)
	for i := 0; i < n.reqHold.Len(); i++ {
		e := n.reqHold.At(i)
		fmt.Fprintf(&b, "\n  held: %s srcSeq=%d arrived@%d", e.pkt, e.pkt.SrcSeq, e.arrive)
	}
	return b.String()
}
