package directory

// The previous design of Home, kept verbatim apart from its names, as the
// reference TestHomeMatchesReference drives in lockstep with the
// table-based home.

import (
	"fmt"

	"scorpio/internal/bitset"
	"scorpio/internal/cache"
	"scorpio/internal/coherence"
	"scorpio/internal/noc"
)

// refQreq is a queued (or parked) transaction: its request's fields by value,
// since the request packet goes back to the machine's pool at delivery.
type refQreq struct {
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
type refLine struct {
	owner      int
	sharers    bitset.Set // bit s set: node s holds the line
	overflowed bool
	memValid   bool
	busy       bool
	queue      []refQreq
	parked     []refQreq // waiting for writeback data
	expectWB   uint64    // reqID of the writeback whose data is due (0 = none)
	wbEarly    []uint64  // reqIDs of WBData that arrived before their PutM was processed
}

// wbEarlyHas reports whether a writeback's data already arrived. The slice is
// scanned linearly: at most a handful of writebacks overlap per line.
func (l *refLine) wbEarlyHas(reqID uint64) bool {
	for _, id := range l.wbEarly {
		if id == reqID {
			return true
		}
	}
	return false
}

func (l *refLine) wbEarlyAdd(reqID uint64) { l.wbEarly = append(l.wbEarly, reqID) }

func (l *refLine) wbEarlyDel(reqID uint64) {
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
type refTimer struct {
	at uint64
	l  *refLine
	q  refQreq
}

// refLineBlock is how many lines a home carves from one allocation.
const refLineBlock = 64

// refHome is one node's directory slice.
type refHome struct {
	cfg   HomeConfig
	node  int
	nic   coherence.NetPort
	ids   coherence.IDSource
	pool  *coherence.Pool[Info]
	lines map[uint64]*refLine
	// spare and spareWords are the unused rest of the current blocks that
	// lines and their sharer sets are carved from. Timers hold *refLine, so a
	// block never moves; a full one is left to its lines and a new one made.
	spare      []refLine
	spareWords []uint64
	dirC       *cache.Array
	// LocalProbe lets HT probes reach the home tile's own L2 (the broadcast
	// does not loop back in unordered mode). It must return true.
	LocalProbe func(p *noc.Packet, cycle uint64) bool
	timers     []refTimer
	// timerScratch is the spare backing array Evaluate swaps in while firing
	// due timers (which may append new ones), so the per-cycle detach does
	// not reallocate.
	timerScratch []refTimer
	sendQ        coherence.SendQ
	now          uint64 // cycle of the last Evaluate (idle-check reference)
	Stats        HomeStats

	// Homes sit side by side in one slab and belong to different shards;
	// the pad rounds the stride to whole cache lines.
	_ [56]byte
}

// NewHome builds a directory slice; it draws packet IDs from ids and builds
// its messages from pool, the machine's (nil allocates each one).
func newRefHome(node int, cfg HomeConfig, n coherence.NetPort, ids coherence.IDSource, pool *coherence.Pool[Info]) *refHome {
	h := new(refHome)
	h.init(node, cfg, n, ids, pool, &dirCaches(1, cfg)[0])
	return h
}

// init builds node's slice over its directory cache dirC.
func (h *refHome) init(node int, cfg HomeConfig, n coherence.NetPort, ids coherence.IDSource, pool *coherence.Pool[Info], dirC *cache.Array) {
	h.cfg, h.node, h.nic, h.ids, h.pool = cfg, node, n, ids, pool
	h.lines = map[uint64]*refLine{}
	h.dirC = dirC
}

// line returns the backing entry, defaulting to memory-owned and valid.
func (h *refHome) line(addr uint64) *refLine {
	l, ok := h.lines[addr]
	if !ok {
		words := bitset.Words(h.cfg.Nodes)
		if len(h.spare) == 0 {
			h.spare = make([]refLine, refLineBlock)
			h.spareWords = make([]uint64, refLineBlock*words)
		}
		l = &h.spare[0]
		h.spare = h.spare[1:]
		*l = refLine{owner: -1, memValid: true, sharers: h.spareWords[:words:words]}
		h.spareWords = h.spareWords[words:]
		h.lines[addr] = l
	}
	return l
}

// Request accepts one requester→home message (ReqGetS/ReqGetX/ReqPutM).
func (h *refHome) Request(p *noc.Packet, arrive, cycle uint64) bool {
	_, seen := h.lines[p.Addr]
	l := h.line(p.Addr)
	q := refQreq{kind: Kind(p.Kind), src: p.Src, addr: p.Addr, reqID: p.ReqID, arrive: arrive, seen: seen}
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
func (h *refHome) dirLatency(addr uint64, seen bool) uint64 {
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
func (h *refHome) dispatch(l *refLine, q refQreq, cycle uint64) {
	h.Stats.Transactions++
	lat := h.dirLatency(q.addr, q.seen)
	l.busy = true
	h.timers = append(h.timers, refTimer{at: cycle + lat, l: l, q: q})
}

// process applies the protocol action for one transaction.
func (h *refHome) process(l *refLine, q refQreq, cycle uint64) {
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

func (h *refHome) processGetS(l *refLine, q refQreq, cycle uint64) {
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

func (h *refHome) processGetX(l *refLine, q refQreq, cycle uint64) {
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

func (h *refHome) processPutM(l *refLine, q refQreq, cycle uint64) {
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
func (h *refHome) WBDataArrived(p *noc.Packet, cycle uint64) {
	l := h.line(p.Addr)
	if l.expectWB == p.ReqID && l.expectWB != 0 {
		l.expectWB = 0
		l.memValid = true
		h.ackWB(refQreq{src: p.Src, addr: p.Addr, reqID: p.ReqID}, cycle+uint64(h.cfg.DRAMLatency))
		h.drainParked(l, cycle+uint64(h.cfg.DRAMLatency))
		return
	}
	// The PutM has not been processed yet (or was stale): remember the data.
	l.wbEarlyAdd(p.ReqID)
}

// DoneArrived unblocks a line and dispatches the next queued transaction.
func (h *refHome) DoneArrived(p *noc.Packet, cycle uint64) {
	l := h.line(p.Addr)
	if !l.busy {
		panic(fmt.Sprintf("directory: home %d got Done for idle line %#x", h.node, p.Addr))
	}
	h.unblock(l, cycle)
}

// unblock frees a line and dispatches the next queued transaction. The
// queue is copied down rather than resliced, so it keeps its backing array.
func (h *refHome) unblock(l *refLine, cycle uint64) {
	l.busy = false
	if len(l.queue) > 0 {
		next := l.queue[0]
		l.queue = l.queue[:copy(l.queue, l.queue[1:])]
		h.dispatch(l, next, cycle)
	}
}

// serveFromMemory schedules a DRAM read and DataD response, parking the
// request while writeback data is in flight.
func (h *refHome) serveFromMemory(l *refLine, q refQreq, cycle uint64, acks int) {
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
func (h *refHome) drainParked(l *refLine, cycle uint64) {
	parked := l.parked
	l.parked = nil
	for _, q := range parked {
		h.serveFromMemory(l, q, cycle, q.acks)
	}
}

// msg builds a response-class message about transaction q from the
// machine's pool.
func (h *refHome) msg(kind Kind, dst int, q refQreq, cycle uint64, flits int, info Info) *coherence.Msg[Info] {
	return h.pool.New(noc.Packet{
		ID: h.ids.NextPacketID(), VNet: noc.UOResp, Src: h.node, Dst: dst,
		Kind: int(kind), Addr: q.addr, ReqID: q.reqID, Flits: flits, InjectCycle: cycle,
	}, info)
}

// grant sends a data-less completion (upgrade by the current owner).
func (h *refHome) grant(q refQreq, cycle uint64, acks int) {
	g := h.msg(DataD, q.src, q, cycle, 1,
		Info{ServedByCache: true, HomeArrive: q.arrive, Dispatch: cycle, DataSent: cycle, AckCount: acks})
	h.sendQ.Add(cycle, &g.Packet, &g.Info.DataSent)
}

// forward sends an LPD Fwd to the owner.
func (h *refHome) forward(kind Kind, owner int, q refQreq, cycle uint64, acks int) {
	fwd := h.msg(kind, owner, q, cycle, 1,
		Info{Requester: q.src, HomeArrive: q.arrive, Dispatch: cycle, AckCount: acks})
	h.sendQ.Add(cycle, &fwd.Packet, nil)
}

// probe broadcasts an HT-style probe for line l on the request class and
// probes the home tile's own L2 locally.
func (h *refHome) probe(kind Kind, l *refLine, q refQreq, cycle uint64) {
	h.Stats.ProbeBcasts++
	pr := h.pool.New(noc.Packet{
		ID: h.ids.NextPacketID(), VNet: noc.GOReq, Src: h.node, SID: h.node, Broadcast: true,
		Kind: int(kind), Addr: q.addr, ReqID: q.reqID, Flits: 1, InjectCycle: cycle,
	}, Info{Requester: q.src, HomeArrive: q.arrive, Dispatch: cycle, MemServes: l.owner < 0})
	h.sendQ.Add(cycle, &pr.Packet, nil)
	// The broadcast cannot loop back to this node, so probe the co-located
	// L2 directly (it also closes the requester-is-home upgrade case). Only
	// the home holds the copy, so it goes straight back to the pool.
	if h.LocalProbe != nil {
		local := h.pool.New(pr.Packet, pr.Info)
		local.ID = h.ids.NextPacketID()
		if !h.LocalProbe(&local.Packet, cycle) {
			panic("directory: local probe refused")
		}
		h.pool.Recycle(&local.Packet)
	}
}

// invalidate sends an Inv to one sharer; the sharer acks the requester.
func (h *refHome) invalidate(sharer int, q refQreq, cycle uint64) {
	inv := h.msg(Inv, sharer, q, cycle, 1, Info{Requester: q.src, HomeArrive: q.arrive, Dispatch: cycle})
	h.sendQ.Add(cycle, &inv.Packet, nil)
}

// ackWB closes writeback q at its evicting tile.
func (h *refHome) ackWB(q refQreq, at uint64) {
	a := h.msg(WBAck, q.src, q, at, 1, Info{})
	h.sendQ.Add(at, &a.Packet, nil)
}

// checkOverflow latches LPD pointer overflow.
func (h *refHome) checkOverflow(l *refLine) {
	if h.cfg.Variant == LPD && l.sharers.Count() > h.cfg.Pointers {
		l.overflowed = true
	}
}

// Evaluate fires due timers and drains the send queue.
func (h *refHome) Evaluate(cycle uint64) {
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
func (h *refHome) Commit(cycle uint64) {}

// Idle implements sim.Idler: the home's cycle work is firing due timers and
// injecting due sends; both are skippable while still in the future. A send
// whose latency elapsed but was refused by the NIC keeps the home active so
// it retries every cycle. Inbound transactions arrive through the node's NIC
// delivery, which runs inside the same scheduling unit.
func (h *refHome) Idle() bool {
	for i := range h.timers {
		if h.timers[i].at <= h.now {
			return false
		}
	}
	return h.sendQ.Idle()
}

// NextEventCycle implements sim.NextEventer: the earliest pending timer or
// scheduled send.
func (h *refHome) NextEventCycle(cycle uint64) uint64 {
	next := h.sendQ.NextEventCycle(cycle)
	for i := range h.timers {
		next = min(next, max(h.timers[i].at, cycle+1))
	}
	return next
}
