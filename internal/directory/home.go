package directory

import (
	"fmt"

	"scorpio/internal/bitset"
	"scorpio/internal/cache"
	"scorpio/internal/coherence"
	"scorpio/internal/noc"
	"scorpio/internal/stats"
)

// HomeConfig parameterises the distributed directory slice at each node.
type HomeConfig struct {
	Variant Variant
	// Nodes is the machine size (homes are interleaved line % Nodes).
	Nodes int
	// TotalDirCacheBytes is the machine-wide directory cache budget (256KB
	// in Section 5.1), split evenly across nodes.
	TotalDirCacheBytes int
	// EntryBytes is the per-line directory-cache entry footprint; LPD's
	// pointer entries are 4x the size of HT's two-bit entries, so LPD
	// caches fewer lines (Section 5.1).
	EntryBytes int
	// Pointers is LPD's sharer-pointer budget (4, chosen in Section 5).
	Pointers int
	// DirAccessLatency is the directory cache hit latency (10 cycles).
	DirAccessLatency int
	// DirMissPenalty is the extra off-chip latency of a directory cache
	// miss (fetch from the DRAM-backed full directory).
	DirMissPenalty int
	// DRAMLatency is the pipelined data-access latency (90 cycles).
	DRAMLatency int
	// DataFlits sizes data responses.
	DataFlits int
}

// LPDConfig returns the paper's LPD-D home parameters for an N-node machine.
func LPDConfig(nodes int) HomeConfig {
	return HomeConfig{
		Variant: LPD, Nodes: nodes, TotalDirCacheBytes: 256 * 1024,
		EntryBytes: 8, Pointers: 4,
		DirAccessLatency: 10, DirMissPenalty: 140, DRAMLatency: 90, DataFlits: 3,
	}
}

// HTConfig returns the paper's HT-D home parameters.
func HTConfig(nodes int) HomeConfig {
	c := LPDConfig(nodes)
	c.Variant = HT
	c.EntryBytes = 2
	return c
}

// HomeStats counts directory activity.
type HomeStats struct {
	Transactions  uint64
	Queued        uint64
	DirCacheHits  uint64
	DirCacheMiss  uint64
	DRAMReads     uint64
	Forwards      uint64
	ProbeBcasts   uint64
	Invalidations uint64
	Writebacks    uint64
	StalePutM     uint64
	QueueWait     stats.Mean
}

// qreq is a queued (or parked) transaction.
type qreq struct {
	pkt    *noc.Packet
	arrive uint64
	seen   bool // the line has directory history (a cache miss may recur)
}

// line is the backing directory state for one line (exact, DRAM-backed; the
// finite directory cache only affects latency). The sharer set is a
// multi-word bitset sized to the machine, which keeps the GetX invalidation
// scan a deterministic ascending-bit walk with no per-transaction map churn
// at any node count.
type line struct {
	owner      int
	sharers    bitset.Set // bit s set: node s holds the line
	overflowed bool
	memValid   bool
	busy       bool
	queue      []qreq
	parked     []qreq   // waiting for writeback data
	expectWB   uint64   // reqID of the writeback whose data is due (0 = none)
	wbEarly    []uint64 // reqIDs of WBData that arrived before their PutM was processed
}

// wbEarlyHas reports whether a writeback's data already arrived. The slice is
// scanned linearly: at most a handful of writebacks overlap per line.
func (l *line) wbEarlyHas(reqID uint64) bool {
	for _, id := range l.wbEarly {
		if id == reqID {
			return true
		}
	}
	return false
}

func (l *line) wbEarlyAdd(reqID uint64) { l.wbEarly = append(l.wbEarly, reqID) }

func (l *line) wbEarlyDel(reqID uint64) {
	for i, id := range l.wbEarly {
		if id == reqID {
			l.wbEarly = append(l.wbEarly[:i], l.wbEarly[i+1:]...)
			return
		}
	}
}

// timer schedules the one kind of deferred home work — processing a
// dispatched transaction after its directory-access latency. A concrete
// struct instead of a closure keeps the per-transaction timer off the heap.
type timer struct {
	at uint64
	l  *line
	q  qreq
}

// Home is one node's directory slice.
type Home struct {
	cfg   HomeConfig
	node  int
	nic   coherence.NetPort
	newID func() uint64
	lines map[uint64]*line
	dirC  *cache.Array
	// LocalProbe lets HT probes reach the home tile's own L2 (the broadcast
	// does not loop back in unordered mode). It must return true.
	LocalProbe func(p *noc.Packet, cycle uint64) bool
	timers     []timer
	// timerScratch is the spare backing array Evaluate swaps in while firing
	// due timers (which may append new ones), so the per-cycle detach does
	// not reallocate.
	timerScratch []timer
	sendQ        coherence.SendQ
	now          uint64 // cycle of the last Evaluate (idle-check reference)
	Stats        HomeStats
}

// NewHome builds a directory slice.
func NewHome(node int, cfg HomeConfig, n coherence.NetPort, newID func() uint64) *Home {
	perNode := cfg.TotalDirCacheBytes / cfg.Nodes
	entries := perNode / cfg.EntryBytes
	if entries < 4 {
		entries = 4
	}
	return &Home{
		cfg: cfg, node: node, nic: n, newID: newID,
		lines: map[uint64]*line{},
		dirC:  cache.NewArrayBytes(entries*cfg.EntryBytes, cfg.EntryBytes, 4),
	}
}

// HomeFor returns the home node of a line in an N-node machine.
func HomeFor(addr uint64, nodes int) int { return int(addr % uint64(nodes)) }

// line returns the backing entry, defaulting to memory-owned and valid.
func (h *Home) line(addr uint64) *line {
	l, ok := h.lines[addr]
	if !ok {
		l = &line{owner: -1, memValid: true, sharers: bitset.New(h.cfg.Nodes)}
		h.lines[addr] = l
	}
	return l
}

// Request accepts one requester→home message (ReqGetS/ReqGetX/ReqPutM).
func (h *Home) Request(p *noc.Packet, arrive, cycle uint64) bool {
	_, seen := h.lines[p.Addr]
	l := h.line(p.Addr)
	q := qreq{pkt: p, arrive: arrive, seen: seen}
	if l.busy {
		l.queue = append(l.queue, q)
		h.Stats.Queued++
		return true
	}
	h.dispatch(l, q, cycle)
	return true
}

// dirLatency models the directory cache access. A first touch allocates the
// entry alongside the data fetch (no extra penalty); re-fetching an evicted
// entry pays the off-chip penalty — this is the capacity effect that makes
// LPD's large entries expensive (Section 5.1).
func (h *Home) dirLatency(addr uint64, seen bool) uint64 {
	if h.dirC.Get(addr) != nil {
		h.Stats.DirCacheHits++
		return uint64(h.cfg.DirAccessLatency)
	}
	h.dirC.Insert(addr, 0, 0)
	if !seen {
		h.Stats.DirCacheHits++
		return uint64(h.cfg.DirAccessLatency)
	}
	h.Stats.DirCacheMiss++
	return uint64(h.cfg.DirAccessLatency + h.cfg.DirMissPenalty)
}

// dispatch begins processing one transaction after the directory access.
func (h *Home) dispatch(l *line, q qreq, cycle uint64) {
	h.Stats.Transactions++
	h.Stats.QueueWait.Observe(float64(cycle - q.arrive))
	lat := h.dirLatency(q.pkt.Addr, q.seen)
	l.busy = true
	h.timers = append(h.timers, timer{at: cycle + lat, l: l, q: q})
}

// process applies the protocol action for one transaction.
func (h *Home) process(l *line, q qreq, cycle uint64) {
	p := q.pkt
	switch Kind(p.Kind) {
	case ReqGetS:
		h.processGetS(l, q, cycle)
	case ReqGetX:
		h.processGetX(l, q, cycle)
	case ReqPutM:
		h.processPutM(l, q, cycle)
		// Writebacks complete at the home; no Done follows.
		h.unblock(l, cycle)
	default:
		panic(fmt.Sprintf("directory: home %d got %s as a request", h.node, Kind(p.Kind)))
	}
}

func (h *Home) processGetS(l *line, q qreq, cycle uint64) {
	p := q.pkt
	if l.owner >= 0 && l.owner != p.Src {
		// An on-chip owner supplies the data.
		if h.cfg.Variant == LPD {
			h.forward(FwdGetS, l.owner, p, q.arrive, cycle, 0)
		} else {
			h.probe(ProbeS, l, p, q.arrive, cycle)
		}
		l.sharers.Add(p.Src)
		h.checkOverflow(l)
		return
	}
	if l.owner == p.Src {
		// Redundant GetS from the owner (lost race); grant without data.
		h.grant(p, q.arrive, cycle, cycle, 0)
		return
	}
	// Memory supplies the data.
	l.sharers.Add(p.Src)
	h.checkOverflow(l)
	h.serveFromMemory(l, q, cycle, 0)
}

func (h *Home) processGetX(l *line, q qreq, cycle uint64) {
	p := q.pkt
	switch {
	case h.cfg.Variant == HT:
		// Probe everyone; the owner (if any) sends data. The home is the
		// ordering point, so invalidations carry no acks.
		h.probe(ProbeX, l, p, q.arrive, cycle)
		if l.owner < 0 {
			h.serveFromMemory(l, q, cycle, 0)
		}
		// An upgrade by the owner (l.owner == p.Src) completes when the
		// requester's own probe returns to it.
	case l.overflowed:
		// LPD past its pointers: fall back to a broadcast, like the paper's
		// "request is broadcast to all cores".
		h.probe(ProbeX, l, p, q.arrive, cycle)
		if l.owner < 0 {
			h.serveFromMemory(l, q, cycle, 0)
		} else if l.owner == p.Src {
			// Upgrade by the owner under overflow: data-less grant.
			h.grant(p, q.arrive, cycle, cycle, 0)
		}
	default:
		// LPD with precise sharers. Invalidations go out in ascending node
		// order — bitset iteration is inherently deterministic, unlike the
		// sorted map scan it replaced.
		invs := 0
		for s := l.sharers.Next(0); s >= 0; s = l.sharers.Next(s + 1) {
			if s == p.Src || s == l.owner {
				continue
			}
			h.invalidate(s, p, q.arrive, cycle)
			invs++
		}
		switch {
		case l.owner >= 0 && l.owner != p.Src:
			h.forward(FwdGetX, l.owner, p, q.arrive, cycle, invs)
		case l.owner == p.Src:
			// Upgrade by the owner: grant, no data movement.
			h.grant(p, q.arrive, cycle, cycle, invs)
		default:
			h.serveFromMemory(l, q, cycle, invs)
		}
	}
	l.owner = p.Src
	l.sharers.SetOnly(p.Src)
	l.overflowed = false
}

func (h *Home) processPutM(l *line, q qreq, cycle uint64) {
	p := q.pkt
	if l.owner != p.Src {
		// Stale: ownership moved before the PutM was processed.
		h.Stats.StalePutM++
		l.wbEarlyDel(p.ReqID)
		h.ack(WBAck, p.Src, p, cycle)
		return
	}
	l.owner = -1
	h.Stats.Writebacks++
	if l.wbEarlyHas(p.ReqID) {
		l.wbEarlyDel(p.ReqID)
		l.memValid = true
		h.ack(WBAck, p.Src, p, cycle+uint64(h.cfg.DRAMLatency))
		h.drainParked(l, cycle+uint64(h.cfg.DRAMLatency))
		return
	}
	l.memValid = false
	l.expectWB = p.ReqID
}

// WBDataArrived consumes writeback data from the response network.
func (h *Home) WBDataArrived(p *noc.Packet, cycle uint64) {
	l := h.line(p.Addr)
	if l.expectWB == p.ReqID && l.expectWB != 0 {
		l.expectWB = 0
		l.memValid = true
		h.ack(WBAck, p.Src, p, cycle+uint64(h.cfg.DRAMLatency))
		h.drainParked(l, cycle+uint64(h.cfg.DRAMLatency))
		return
	}
	// The PutM has not been processed yet (or was stale): remember the data.
	l.wbEarlyAdd(p.ReqID)
}

// DoneArrived unblocks a line and dispatches the next queued transaction.
func (h *Home) DoneArrived(p *noc.Packet, cycle uint64) {
	l := h.line(p.Addr)
	if !l.busy {
		panic(fmt.Sprintf("directory: home %d got Done for idle line %#x", h.node, p.Addr))
	}
	h.unblock(l, cycle)
}

// unblock frees a line and dispatches the next queued transaction.
func (h *Home) unblock(l *line, cycle uint64) {
	l.busy = false
	if len(l.queue) > 0 {
		next := l.queue[0]
		l.queue = l.queue[1:]
		h.dispatch(l, next, cycle)
	}
}

// serveFromMemory schedules a DRAM read and DataD response, parking the
// request while writeback data is in flight.
func (h *Home) serveFromMemory(l *line, q qreq, cycle uint64, acks int) {
	if !l.memValid {
		l.parked = append(l.parked, q)
		// Remember the ack count in the parked packet's payload slot.
		q.pkt.Payload = acks
		return
	}
	p := q.pkt
	h.Stats.DRAMReads++
	resp := &RespInfo{ServedByCache: false, HomeArrive: q.arrive, Dispatch: cycle, AckCount: acks}
	data := &noc.Packet{
		ID: h.newID(), VNet: noc.UOResp, Src: h.node, Dst: p.Src,
		Kind: int(DataD), Addr: p.Addr, ReqID: p.ReqID,
		Flits: h.cfg.DataFlits, InjectCycle: cycle, Payload: resp,
	}
	h.sendQ.Add(cycle+uint64(h.cfg.DRAMLatency), data, &resp.DataSent)
}

// drainParked serves requests that waited for writeback data.
func (h *Home) drainParked(l *line, cycle uint64) {
	parked := l.parked
	l.parked = nil
	for _, q := range parked {
		acks, _ := q.pkt.Payload.(int)
		q.pkt.Payload = nil
		h.serveFromMemory(l, q, cycle, acks)
	}
}

// grant sends a data-less completion (upgrade by the current owner).
func (h *Home) grant(p *noc.Packet, arrive, cycle, sendAt uint64, acks int) {
	resp := &RespInfo{ServedByCache: true, HomeArrive: arrive, Dispatch: cycle, DataSent: sendAt, AckCount: acks}
	g := &noc.Packet{
		ID: h.newID(), VNet: noc.UOResp, Src: h.node, Dst: p.Src,
		Kind: int(DataD), Addr: p.Addr, ReqID: p.ReqID, Flits: 1,
		InjectCycle: cycle, Payload: resp,
	}
	h.sendQ.Add(sendAt, g, &resp.DataSent)
}

// forward sends an LPD Fwd to the owner.
func (h *Home) forward(kind Kind, owner int, p *noc.Packet, arrive, cycle uint64, acks int) {
	h.Stats.Forwards++
	fwd := &noc.Packet{
		ID: h.newID(), VNet: noc.UOResp, Src: h.node, Dst: owner,
		Kind: int(kind), Addr: p.Addr, ReqID: p.ReqID, Flits: 1, InjectCycle: cycle,
		Payload: &FwdInfo{Requester: p.Src, ReqID: p.ReqID, HomeArrive: arrive, Dispatch: cycle, AckCount: acks},
	}
	h.sendQ.Add(cycle, fwd, nil)
}

// probe broadcasts an HT-style probe for line l on the request class and
// probes the home tile's own L2 locally.
func (h *Home) probe(kind Kind, l *line, p *noc.Packet, arrive, cycle uint64) {
	h.Stats.ProbeBcasts++
	info := &FwdInfo{Requester: p.Src, ReqID: p.ReqID, HomeArrive: arrive, Dispatch: cycle, MemServes: l.owner < 0}
	pr := &noc.Packet{
		ID: h.newID(), VNet: noc.GOReq, Src: h.node, SID: h.node, Broadcast: true,
		Kind: int(kind), Addr: p.Addr, ReqID: p.ReqID, Flits: 1, InjectCycle: cycle,
		Payload: info,
	}
	h.sendQ.Add(cycle, pr, nil)
	// The broadcast cannot loop back to this node, so probe the co-located
	// L2 directly (it also closes the requester-is-home upgrade case).
	if h.LocalProbe != nil {
		local := *pr
		local.ID = h.newID()
		if !h.LocalProbe(&local, cycle) {
			panic("directory: local probe refused")
		}
	}
}

// invalidate sends an Inv to one sharer; the sharer acks the requester.
func (h *Home) invalidate(sharer int, p *noc.Packet, arrive, cycle uint64) {
	h.Stats.Invalidations++
	inv := &noc.Packet{
		ID: h.newID(), VNet: noc.UOResp, Src: h.node, Dst: sharer,
		Kind: int(Inv), Addr: p.Addr, ReqID: p.ReqID, Flits: 1, InjectCycle: cycle,
		Payload: &FwdInfo{Requester: p.Src, ReqID: p.ReqID, HomeArrive: arrive, Dispatch: cycle},
	}
	h.sendQ.Add(cycle, inv, nil)
}

// ack sends a single-flit acknowledgement.
func (h *Home) ack(kind Kind, dst int, p *noc.Packet, at uint64) {
	a := &noc.Packet{
		ID: h.newID(), VNet: noc.UOResp, Src: h.node, Dst: dst,
		Kind: int(kind), Addr: p.Addr, ReqID: p.ReqID, Flits: 1, InjectCycle: at,
	}
	h.sendQ.Add(at, a, nil)
}

// checkOverflow latches LPD pointer overflow.
func (h *Home) checkOverflow(l *line) {
	if h.cfg.Variant == LPD && l.sharers.Count() > h.cfg.Pointers {
		l.overflowed = true
	}
}

// Evaluate fires due timers and drains the send queue.
func (h *Home) Evaluate(cycle uint64) {
	h.now = cycle
	if len(h.timers) > 0 {
		// Detach first: firing a timer (process → unblock → dispatch) may
		// schedule new timers. The spare scratch array is swapped in so the
		// detach reuses last cycle's backing storage instead of reallocating.
		due := h.timers
		h.timers = h.timerScratch[:0]
		for _, t := range due {
			if t.at <= cycle {
				h.process(t.l, t.q, cycle)
			} else {
				h.timers = append(h.timers, t)
			}
		}
		h.timerScratch = due[:0]
	}
	h.sendQ.Drain(h.nic, cycle)
}

// Commit implements sim.Component.
func (h *Home) Commit(cycle uint64) {}

// Idle implements sim.Idler: the home's cycle work is firing due timers and
// injecting due sends; both are skippable while still in the future. A send
// whose latency elapsed but was refused by the NIC keeps the home active so
// it retries every cycle. Inbound transactions arrive through the node's NIC
// delivery, which runs inside the same scheduling unit.
func (h *Home) Idle() bool {
	for i := range h.timers {
		if h.timers[i].at <= h.now {
			return false
		}
	}
	return h.sendQ.Idle()
}

// NextEventCycle implements sim.NextEventer: the earliest pending timer or
// scheduled send.
func (h *Home) NextEventCycle(cycle uint64) uint64 {
	next := h.sendQ.NextEventCycle(cycle)
	for i := range h.timers {
		next = min(next, max(h.timers[i].at, cycle+1))
	}
	return next
}
