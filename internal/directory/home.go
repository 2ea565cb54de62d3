package directory

import (
	"fmt"
	"math/bits"

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
	parked bool // a memory read waiting for writeback data, not for its line
}

// line is one line's record in the home's table: the backing directory
// state (exact, DRAM-backed; the finite directory cache only affects
// latency). Its sharer set is the record's words in Home.words, a
// multi-word bitset sized to the machine, which keeps the GetX invalidation
// scan a deterministic ascending-bit walk with no per-transaction churn at
// any node count.
type line struct {
	addr       uint64
	expectWB   uint64 // reqID of the writeback whose data is due (0 = none)
	owner      int
	used       bool // the slot holds a line; lines are never deleted
	overflowed bool
	memValid   bool
	busy       bool
}

// earlyWB names writeback data that arrived before its PutM was processed.
type earlyWB struct {
	addr  uint64
	reqID uint64
}

// timer schedules the one kind of deferred home work — processing a
// dispatched transaction after its directory-access latency. A concrete
// struct instead of a closure keeps the per-transaction timer off the heap.
// It names its line by address (q.addr): records move when the table grows.
type timer struct {
	at uint64
	q  qreq
}

const (
	// tableFirst is the line table's size at a home's first touch. It
	// doubles before it would pass three-quarters full; a Figure 6a home
	// sees 71-181 lines, so it doubles at most once there.
	tableFirst = 128
	// timersFirst sizes each of the two timer lists, and waitFirst the
	// waiting list, at first use. A Figure 6a home holds at most about 10
	// timers and 24 waiting transactions at once, most far fewer.
	timersFirst = 8
	waitFirst   = 16
)

// hashMul is the table's fixed multiplicative (Fibonacci) hash: the top
// bits of addr·hashMul pick a line's first slot, so lines that differ by
// multiples of the node count, as those of one home do, still spread.
const hashMul = 0x9E3779B97F4A7C15

// Home is one node's directory slice.
type Home struct {
	cfg  HomeConfig
	node int
	nic  coherence.NetPort
	ids  coherence.IDSource
	pool *coherence.Pool[Info]
	// tab is the open-addressed line table (linear probing; made at the
	// first touch, doubled by grow) and words its records' sharer sets,
	// bitset.Words(cfg.Nodes) words per slot. nLines counts used slots.
	tab    []line
	words  []uint64
	nLines int
	// wait holds, in the order they began to wait, the transactions that
	// wait for their busy line and the memory reads parked for writeback
	// data; early holds the writeback data that arrived before its PutM was
	// processed.
	wait  []qreq
	early []earlyWB
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

	// Homes sit side by side in one slab and belong to different shards;
	// the pad rounds the stride to whole cache lines.
	_ [8]byte
}

// NewHome builds a directory slice; it draws packet IDs from ids and builds
// its messages from pool, the machine's (nil allocates each one).
func NewHome(node int, cfg HomeConfig, n coherence.NetPort, ids coherence.IDSource, pool *coherence.Pool[Info]) *Home {
	h := new(Home)
	h.init(node, cfg, n, ids, pool, &dirCaches(1, cfg)[0])
	return h
}

// NewHomes builds the slices of nodes 0..len(ports)-1 as NewHome builds one,
// node i sending through ports[i] and drawing IDs from ids[i]. The homes are
// one slice, and their directory caches' lines one slab.
func NewHomes(cfg HomeConfig, ports []coherence.NetPort, ids []coherence.IDSource, pool *coherence.Pool[Info]) []Home {
	dirC := dirCaches(len(ports), cfg)
	homes := make([]Home, len(ports))
	for i := range homes {
		homes[i].init(i, cfg, ports[i], ids[i], pool, &dirC[i])
	}
	return homes
}

// dirCaches builds n homes' directory-cache arrays: each node's share of
// the machine's budget, at least four entries.
func dirCaches(n int, cfg HomeConfig) []cache.Array {
	perNode := cfg.TotalDirCacheBytes / cfg.Nodes
	entries := perNode / cfg.EntryBytes
	if entries < 4 {
		entries = 4
	}
	return cache.NewArraysBytes(n, entries*cfg.EntryBytes, cfg.EntryBytes, 4)
}

// init builds node's slice over its directory cache dirC. Its line table
// and lists are made at first use.
func (h *Home) init(node int, cfg HomeConfig, n coherence.NetPort, ids coherence.IDSource, pool *coherence.Pool[Info], dirC *cache.Array) {
	h.cfg, h.node, h.nic, h.ids, h.pool = cfg, node, n, ids, pool
	h.dirC = dirC
}

// HomeFor returns the home node of a line in an N-node machine.
func HomeFor(addr uint64, nodes int) int { return int(addr % uint64(nodes)) }

// slot returns the table slot of addr's record and whether the line was
// there before, first making a memory-owned, valid record for a new line.
func (h *Home) slot(addr uint64) (int, bool) {
	if h.tab != nil {
		if i, ok := h.lookup(addr); ok {
			return i, true
		}
	}
	if 4*(h.nLines+1) > 3*len(h.tab) {
		h.grow()
	}
	i, _ := h.lookup(addr)
	h.tab[i] = line{addr: addr, owner: -1, used: true, memValid: true}
	h.nLines++
	return i, false
}

// lookup returns the slot of addr's record and true, or the first unused
// slot of addr's probe sequence and false. The first slot is the top
// log2(len(tab)) bits of addr's hash.
func (h *Home) lookup(addr uint64) (int, bool) {
	mask := len(h.tab) - 1
	i := int(addr * hashMul >> bits.LeadingZeros64(uint64(mask)))
	for ; h.tab[i].used; i = (i + 1) & mask {
		if h.tab[i].addr == addr {
			return i, true
		}
	}
	return i, false
}

// grow doubles the table, or makes it at the home's first touch, and moves
// every record and its sharer words to its slot in the new one.
func (h *Home) grow() {
	old, oldWords := h.tab, h.words
	nw := bitset.Words(h.cfg.Nodes)
	n := max(2*len(old), tableFirst)
	h.tab, h.words = make([]line, n), make([]uint64, n*nw)
	for i := range old {
		if old[i].used {
			j, _ := h.lookup(old[i].addr)
			h.tab[j] = old[i]
			copy(h.words[j*nw:(j+1)*nw], oldWords[i*nw:(i+1)*nw])
		}
	}
}

// sharers returns the sharer set of slot i's line.
func (h *Home) sharers(i int) bitset.Set {
	nw := bitset.Words(h.cfg.Nodes)
	return h.words[i*nw : (i+1)*nw : (i+1)*nw]
}

// Request accepts one requester→home message (ReqGetS/ReqGetX/ReqPutM).
func (h *Home) Request(p *noc.Packet, arrive, cycle uint64) bool {
	i, seen := h.slot(p.Addr)
	q := qreq{kind: Kind(p.Kind), src: p.Src, addr: p.Addr, reqID: p.ReqID, arrive: arrive, seen: seen}
	if l := &h.tab[i]; !l.busy {
		h.dispatch(l, q, cycle)
		return true
	}
	h.await(q)
	h.Stats.Queued++
	return true
}

// await appends q to the waiting list, which is made at first use.
func (h *Home) await(q qreq) {
	if h.wait == nil {
		h.wait = make([]qreq, 0, waitFirst)
	}
	h.wait = append(h.wait, q)
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
// The two timer lists are cut from one array at the first dispatch.
func (h *Home) dispatch(l *line, q qreq, cycle uint64) {
	h.Stats.Transactions++
	lat := h.dirLatency(q.addr, q.seen)
	l.busy = true
	if h.timers == nil {
		buf := make([]timer, 2*timersFirst)
		h.timers, h.timerScratch = buf[:0:timersFirst], buf[timersFirst:timersFirst]
	}
	h.timers = append(h.timers, timer{at: cycle + lat, q: q})
}

// process applies the protocol action for one transaction.
func (h *Home) process(q qreq, cycle uint64) {
	i, _ := h.lookup(q.addr)
	l := &h.tab[i]
	switch q.kind {
	case ReqGetS:
		h.processGetS(l, h.sharers(i), q, cycle)
	case ReqGetX:
		h.processGetX(l, h.sharers(i), q, cycle)
	case ReqPutM:
		h.processPutM(l, q, cycle)
		// Writebacks complete at the home; no Done follows.
		h.unblock(l, cycle)
	default:
		panic(fmt.Sprintf("directory: home %d got %s as a request", h.node, q.kind))
	}
}

func (h *Home) processGetS(l *line, sharers bitset.Set, q qreq, cycle uint64) {
	if l.owner >= 0 && l.owner != q.src {
		// An on-chip owner supplies the data.
		if h.cfg.Variant == LPD {
			h.forward(FwdGetS, l.owner, q, cycle, 0)
		} else {
			h.probe(ProbeS, l, q, cycle)
		}
		sharers.Add(q.src)
		h.checkOverflow(l, sharers)
		return
	}
	if l.owner == q.src {
		// Redundant GetS from the owner (lost race); grant without data.
		h.grant(q, cycle, 0)
		return
	}
	// Memory supplies the data.
	sharers.Add(q.src)
	h.checkOverflow(l, sharers)
	h.serveFromMemory(l, q, cycle, 0)
}

func (h *Home) processGetX(l *line, sharers bitset.Set, q qreq, cycle uint64) {
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
		for s := sharers.Next(0); s >= 0; s = sharers.Next(s + 1) {
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
	sharers.SetOnly(q.src)
	l.overflowed = false
}

func (h *Home) processPutM(l *line, q qreq, cycle uint64) {
	if l.owner != q.src {
		// Stale: ownership moved before the PutM was processed.
		h.Stats.StalePutM++
		h.takeEarly(q.addr, q.reqID)
		h.ackWB(q, cycle)
		return
	}
	l.owner = -1
	if h.takeEarly(q.addr, q.reqID) {
		l.memValid = true
		h.ackWB(q, cycle+uint64(h.cfg.DRAMLatency))
		h.drainParked(q.addr, cycle+uint64(h.cfg.DRAMLatency))
		return
	}
	l.memValid = false
	l.expectWB = q.reqID
}

// takeEarly reports whether the data of writeback reqID for addr arrived
// before its PutM was processed, and forgets the arrival.
func (h *Home) takeEarly(addr, reqID uint64) bool {
	for i, w := range h.early {
		if w == (earlyWB{addr: addr, reqID: reqID}) {
			h.early = append(h.early[:i], h.early[i+1:]...)
			return true
		}
	}
	return false
}

// WBDataArrived consumes writeback data from the response network.
func (h *Home) WBDataArrived(p *noc.Packet, cycle uint64) {
	i, _ := h.slot(p.Addr)
	l := &h.tab[i]
	if l.expectWB == p.ReqID && l.expectWB != 0 {
		l.expectWB = 0
		l.memValid = true
		h.ackWB(qreq{src: p.Src, addr: p.Addr, reqID: p.ReqID}, cycle+uint64(h.cfg.DRAMLatency))
		h.drainParked(p.Addr, cycle+uint64(h.cfg.DRAMLatency))
		return
	}
	// The PutM has not been processed yet (or was stale): remember the data.
	h.early = append(h.early, earlyWB{addr: p.Addr, reqID: p.ReqID})
}

// DoneArrived unblocks a line and dispatches the next queued transaction.
func (h *Home) DoneArrived(p *noc.Packet, cycle uint64) {
	i, _ := h.slot(p.Addr)
	if !h.tab[i].busy {
		panic(fmt.Sprintf("directory: home %d got Done for idle line %#x", h.node, p.Addr))
	}
	h.unblock(&h.tab[i], cycle)
}

// unblock frees a line and dispatches the oldest transaction waiting for
// it. The list is copied down rather than resliced, so it keeps its backing
// array.
func (h *Home) unblock(l *line, cycle uint64) {
	l.busy = false
	for i, q := range h.wait {
		if q.addr == l.addr && !q.parked {
			h.wait = append(h.wait[:i], h.wait[i+1:]...)
			h.dispatch(l, q, cycle)
			return
		}
	}
}

// serveFromMemory schedules a DRAM read and DataD response, parking the
// request while writeback data is in flight.
func (h *Home) serveFromMemory(l *line, q qreq, cycle uint64, acks int) {
	if !l.memValid {
		q.acks, q.parked = acks, true
		h.await(q)
		return
	}
	h.sendData(q, cycle, acks)
}

// sendData schedules q's DataD response after the DRAM latency.
func (h *Home) sendData(q qreq, cycle uint64, acks int) {
	data := h.msg(DataD, q.src, q, cycle, h.cfg.DataFlits,
		Info{ServedByCache: false, HomeArrive: q.arrive, Dispatch: cycle, AckCount: acks})
	h.sendQ.Add(cycle+uint64(h.cfg.DRAMLatency), &data.Packet, &data.Info.DataSent)
}

// drainParked serves, in parking order, the reads of addr that waited for
// its writeback data, and keeps every other waiting transaction.
func (h *Home) drainParked(addr uint64, cycle uint64) {
	kept := h.wait[:0]
	for _, q := range h.wait {
		if q.addr == addr && q.parked {
			h.sendData(q, cycle, q.acks)
		} else {
			kept = append(kept, q)
		}
	}
	h.wait = kept
}

// msg builds a response-class message about transaction q from the
// machine's pool.
func (h *Home) msg(kind Kind, dst int, q qreq, cycle uint64, flits int, info Info) *coherence.Msg[Info] {
	return h.pool.New(noc.Packet{
		ID: h.ids.NextPacketID(), VNet: noc.UOResp, Src: h.node, Dst: dst,
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
func (h *Home) checkOverflow(l *line, sharers bitset.Set) {
	if h.cfg.Variant == LPD && sharers.Count() > h.cfg.Pointers {
		l.overflowed = true
	}
}

// Evaluate fires due timers and drains the send queue.
func (h *Home) Evaluate(cycle uint64) {
	h.now = cycle
	if len(h.timers) > 0 {
		// Detach first: firing a timer (process → unblock → dispatch) may
		// schedule new timers, which land after the timers kept so far and
		// before those still to be read; which of two timers due in one
		// cycle fires first depends on that order. The spare scratch array
		// is swapped in so the detach reuses last cycle's backing storage
		// instead of reallocating.
		due := h.timers
		h.timers = h.timerScratch[:0]
		for _, t := range due {
			if t.at <= cycle {
				h.process(t.q, cycle)
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
