package directory

import (
	"fmt"

	"scorpio/internal/bitset"
	"scorpio/internal/cache"
	"scorpio/internal/coherence"
	"scorpio/internal/noc"
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
	Transactions uint64
	Queued       uint64
	DirCacheHits uint64
	DirCacheMiss uint64
	ProbeBcasts  uint64
	StalePutM    uint64
}

// qreq is a queued (or parked) transaction: its request's fields by value,
// since the request packet goes back to the machine's pool at delivery.
type qreq struct {
	kind   Kind
	src    int
	addr   uint64
	reqID  uint64
	arrive uint64
	acks   int  // invalidation acks a parked memory read announces
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

// lineBlock is how many lines a home carves from one allocation.
const lineBlock = 64

// Home is one node's directory slice.
type Home struct {
	cfg   HomeConfig
	node  int
	nic   coherence.NetPort
	newID func() uint64
	pool  *coherence.Pool[Info]
	lines map[uint64]*line
	// spare and spareWords are the unused rest of the current blocks that
	// lines and their sharer sets are carved from. Timers hold *line, so a
	// block never moves; a full one is left to its lines and a new one made.
	spare      []line
	spareWords []uint64
	dirC       *cache.Array
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

// NewHome builds a directory slice; it builds its messages from pool, the
// machine's (nil allocates each one).
func NewHome(node int, cfg HomeConfig, n coherence.NetPort, newID func() uint64, pool *coherence.Pool[Info]) *Home {
	perNode := cfg.TotalDirCacheBytes / cfg.Nodes
	entries := perNode / cfg.EntryBytes
	if entries < 4 {
		entries = 4
	}
	return &Home{
		cfg: cfg, node: node, nic: n, newID: newID, pool: pool,
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
		words := bitset.Words(h.cfg.Nodes)
		if len(h.spare) == 0 {
			h.spare = make([]line, lineBlock)
			h.spareWords = make([]uint64, lineBlock*words)
		}
		l = &h.spare[0]
		h.spare = h.spare[1:]
		*l = line{owner: -1, memValid: true, sharers: h.spareWords[:words:words]}
		h.spareWords = h.spareWords[words:]
		h.lines[addr] = l
	}
	return l
}

// Request accepts one requester→home message (ReqGetS/ReqGetX/ReqPutM).
func (h *Home) Request(p *noc.Packet, arrive, cycle uint64) bool {
	_, seen := h.lines[p.Addr]
	l := h.line(p.Addr)
	q := qreq{kind: Kind(p.Kind), src: p.Src, addr: p.Addr, reqID: p.ReqID, arrive: arrive, seen: seen}
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
	lat := h.dirLatency(q.addr, q.seen)
	l.busy = true
	h.timers = append(h.timers, timer{at: cycle + lat, l: l, q: q})
}

// process applies the protocol action for one transaction.
func (h *Home) process(l *line, q qreq, cycle uint64) {
	switch q.kind {
	case ReqGetS:
		h.processGetS(l, q, cycle)
	case ReqGetX:
		h.processGetX(l, q, cycle)
	case ReqPutM:
		h.processPutM(l, q, cycle)
		// Writebacks complete at the home; no Done follows.
		h.unblock(l, cycle)
	default:
		panic(fmt.Sprintf("directory: home %d got %s as a request", h.node, q.kind))
	}
}

func (h *Home) processGetS(l *line, q qreq, cycle uint64) {
	if l.owner >= 0 && l.owner != q.src {
		// An on-chip owner supplies the data.
		if h.cfg.Variant == LPD {
			h.forward(FwdGetS, l.owner, q, cycle, 0)
		} else {
			h.probe(ProbeS, l, q, cycle)
		}
		l.sharers.Add(q.src)
		h.checkOverflow(l)
		return
	}
	if l.owner == q.src {
		// Redundant GetS from the owner (lost race); grant without data.
		h.grant(q, cycle, 0)
		return
	}
	// Memory supplies the data.
	l.sharers.Add(q.src)
	h.checkOverflow(l)
	h.serveFromMemory(l, q, cycle, 0)
}

func (h *Home) processGetX(l *line, q qreq, cycle uint64) {
	switch {
	case h.cfg.Variant == HT:
		// Probe everyone; the owner (if any) sends data. The home is the
		// ordering point, so invalidations carry no acks.
		h.probe(ProbeX, l, q, cycle)
		if l.owner < 0 {
			h.serveFromMemory(l, q, cycle, 0)
		}
		// An upgrade by the owner (l.owner == q.src) completes when the
		// requester's own probe returns to it.
	case l.overflowed:
		// LPD past its pointers: fall back to a broadcast, like the paper's
		// "request is broadcast to all cores".
		h.probe(ProbeX, l, q, cycle)
		if l.owner < 0 {
			h.serveFromMemory(l, q, cycle, 0)
		} else if l.owner == q.src {
			// Upgrade by the owner under overflow: data-less grant.
			h.grant(q, cycle, 0)
		}
	default:
		// LPD with precise sharers. Invalidations go out in ascending node
		// order — bitset iteration is inherently deterministic, unlike the
		// sorted map scan it replaced.
		invs := 0
		for s := l.sharers.Next(0); s >= 0; s = l.sharers.Next(s + 1) {
			if s == q.src || s == l.owner {
				continue
			}
			h.invalidate(s, q, cycle)
			invs++
		}
		switch {
		case l.owner >= 0 && l.owner != q.src:
			h.forward(FwdGetX, l.owner, q, cycle, invs)
		case l.owner == q.src:
			// Upgrade by the owner: grant, no data movement.
			h.grant(q, cycle, invs)
		default:
			h.serveFromMemory(l, q, cycle, invs)
		}
	}
	l.owner = q.src
	l.sharers.SetOnly(q.src)
	l.overflowed = false
}

func (h *Home) processPutM(l *line, q qreq, cycle uint64) {
	if l.owner != q.src {
		// Stale: ownership moved before the PutM was processed.
		h.Stats.StalePutM++
		l.wbEarlyDel(q.reqID)
		h.ackWB(q, cycle)
		return
	}
	l.owner = -1
	if l.wbEarlyHas(q.reqID) {
		l.wbEarlyDel(q.reqID)
		l.memValid = true
		h.ackWB(q, cycle+uint64(h.cfg.DRAMLatency))
		h.drainParked(l, cycle+uint64(h.cfg.DRAMLatency))
		return
	}
	l.memValid = false
	l.expectWB = q.reqID
}

// WBDataArrived consumes writeback data from the response network.
func (h *Home) WBDataArrived(p *noc.Packet, cycle uint64) {
	l := h.line(p.Addr)
	if l.expectWB == p.ReqID && l.expectWB != 0 {
		l.expectWB = 0
		l.memValid = true
		h.ackWB(qreq{src: p.Src, addr: p.Addr, reqID: p.ReqID}, cycle+uint64(h.cfg.DRAMLatency))
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

// unblock frees a line and dispatches the next queued transaction. The
// queue is copied down rather than resliced, so it keeps its backing array.
func (h *Home) unblock(l *line, cycle uint64) {
	l.busy = false
	if len(l.queue) > 0 {
		next := l.queue[0]
		l.queue = l.queue[:copy(l.queue, l.queue[1:])]
		h.dispatch(l, next, cycle)
	}
}

// serveFromMemory schedules a DRAM read and DataD response, parking the
// request while writeback data is in flight.
func (h *Home) serveFromMemory(l *line, q qreq, cycle uint64, acks int) {
	if !l.memValid {
		q.acks = acks
		l.parked = append(l.parked, q)
		return
	}
	data := h.msg(DataD, q.src, q, cycle, h.cfg.DataFlits,
		Info{ServedByCache: false, HomeArrive: q.arrive, Dispatch: cycle, AckCount: acks})
	h.sendQ.Add(cycle+uint64(h.cfg.DRAMLatency), &data.Packet, &data.Info.DataSent)
}

// drainParked serves requests that waited for writeback data.
func (h *Home) drainParked(l *line, cycle uint64) {
	parked := l.parked
	l.parked = nil
	for _, q := range parked {
		h.serveFromMemory(l, q, cycle, q.acks)
	}
}

// msg builds a response-class message about transaction q from the
// machine's pool.
func (h *Home) msg(kind Kind, dst int, q qreq, cycle uint64, flits int, info Info) *coherence.Msg[Info] {
	return h.pool.New(noc.Packet{
		ID: h.newID(), VNet: noc.UOResp, Src: h.node, Dst: dst,
		Kind: int(kind), Addr: q.addr, ReqID: q.reqID, Flits: flits, InjectCycle: cycle,
	}, info)
}

// grant sends a data-less completion (upgrade by the current owner).
func (h *Home) grant(q qreq, cycle uint64, acks int) {
	g := h.msg(DataD, q.src, q, cycle, 1,
		Info{ServedByCache: true, HomeArrive: q.arrive, Dispatch: cycle, DataSent: cycle, AckCount: acks})
	h.sendQ.Add(cycle, &g.Packet, &g.Info.DataSent)
}

// forward sends an LPD Fwd to the owner.
func (h *Home) forward(kind Kind, owner int, q qreq, cycle uint64, acks int) {
	fwd := h.msg(kind, owner, q, cycle, 1,
		Info{Requester: q.src, HomeArrive: q.arrive, Dispatch: cycle, AckCount: acks})
	h.sendQ.Add(cycle, &fwd.Packet, nil)
}

// probe broadcasts an HT-style probe for line l on the request class and
// probes the home tile's own L2 locally.
func (h *Home) probe(kind Kind, l *line, q qreq, cycle uint64) {
	h.Stats.ProbeBcasts++
	pr := h.pool.New(noc.Packet{
		ID: h.newID(), VNet: noc.GOReq, Src: h.node, SID: h.node, Broadcast: true,
		Kind: int(kind), Addr: q.addr, ReqID: q.reqID, Flits: 1, InjectCycle: cycle,
	}, Info{Requester: q.src, HomeArrive: q.arrive, Dispatch: cycle, MemServes: l.owner < 0})
	h.sendQ.Add(cycle, &pr.Packet, nil)
	// The broadcast cannot loop back to this node, so probe the co-located
	// L2 directly (it also closes the requester-is-home upgrade case). Only
	// the home holds the copy, so it goes straight back to the pool.
	if h.LocalProbe != nil {
		local := h.pool.New(pr.Packet, pr.Info)
		local.ID = h.newID()
		if !h.LocalProbe(&local.Packet, cycle) {
			panic("directory: local probe refused")
		}
		h.pool.Recycle(&local.Packet)
	}
}

// invalidate sends an Inv to one sharer; the sharer acks the requester.
func (h *Home) invalidate(sharer int, q qreq, cycle uint64) {
	inv := h.msg(Inv, sharer, q, cycle, 1, Info{Requester: q.src, HomeArrive: q.arrive, Dispatch: cycle})
	h.sendQ.Add(cycle, &inv.Packet, nil)
}

// ackWB closes writeback q at its evicting tile.
func (h *Home) ackWB(q qreq, at uint64) {
	a := h.msg(WBAck, q.src, q, at, 1, Info{})
	h.sendQ.Add(at, &a.Packet, nil)
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
