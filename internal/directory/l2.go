package directory

import (
	"fmt"

	"scorpio/internal/cache"
	"scorpio/internal/coherence"
	"scorpio/internal/noc"
	"scorpio/internal/stats"
)

// L2Config parameterises the requester-side controller of the directory
// baselines. The cache itself matches the chip's L2 so "all other conditions
// equal" holds (Section 5.1).
type L2Config struct {
	CapacityBytes  int
	LineBytes      int
	Ways           int
	HitLatency     int
	MSHRs          int
	CoreQueueDepth int
	DataFlits      int
	Nodes          int
	Variant        Variant
}

// DefaultL2Config mirrors the chip's L2 for an N-node machine.
func DefaultL2Config(nodes int, v Variant) L2Config {
	return L2Config{
		CapacityBytes: 128 * 1024, LineBytes: 32, Ways: 4,
		HitLatency: 10, MSHRs: 2, CoreQueueDepth: 4, DataFlits: 3,
		Nodes: nodes, Variant: v,
	}
}

// dirMiss is the directory protocol's state for one outstanding miss.
type dirMiss struct {
	acksExpected int // -1 until the data response announces it
	acksGot      int
	selfOwned    bool // HT upgrade by the current owner: acks only
	installed    bool // line installed and home unblocked at data arrival
	resp         Info
}

// L2 is the requester-side cache controller of the directory baselines: the
// snoopy L2's Requester front end plus probes, forwards, invalidations, ack
// counting, the HT self-owned upgrade and the Done to the home.
type L2 struct {
	coherence.Requester[dirMiss]
	cfg   L2Config
	ids   coherence.IDSource
	pool  *coherence.Pool[Info]
	Stats coherence.ReqStats

	// Controllers sit side by side in one slab and belong to different
	// shards; the pad rounds the stride to whole cache lines.
	_ [56]byte
}

// newFrontEnds sizes the front-end slabs for n controllers.
func newFrontEnds(n int, cfg L2Config) *coherence.FrontEnds[dirMiss] {
	return coherence.NewFrontEnds[dirMiss](n, cfg.CapacityBytes, cfg.LineBytes, cfg.Ways, cfg.MSHRs, cfg.CoreQueueDepth)
}

// NewL2 builds a directory-protocol cache controller; it draws packet IDs
// from ids and builds its messages from pool, the machine's (nil allocates
// each one).
func NewL2(node int, cfg L2Config, n coherence.NetPort, ids coherence.IDSource, pool *coherence.Pool[Info]) *L2 {
	l := new(L2)
	l.init(node, cfg, n, ids, pool, newFrontEnds(1, cfg))
	return l
}

// NewL2s builds the controllers of nodes 0..len(ports)-1 as NewL2 builds
// one, node i sending through ports[i] and drawing IDs from ids[i]. The
// controllers are one slice, and their arrays, lines, MSHRs and core queues
// one slab per kind.
func NewL2s(cfg L2Config, ports []coherence.NetPort, ids []coherence.IDSource, pool *coherence.Pool[Info]) []L2 {
	fe := newFrontEnds(len(ports), cfg)
	l2s := make([]L2, len(ports))
	for i := range l2s {
		l2s[i].init(i, cfg, ports[i], ids[i], pool, fe)
	}
	return l2s
}

// init builds node's controller, cut from fe.
func (l *L2) init(node int, cfg L2Config, n coherence.NetPort, ids coherence.IDSource, pool *coherence.Pool[Info], fe *coherence.FrontEnds[dirMiss]) {
	l.cfg, l.ids, l.pool = cfg, ids, pool
	l.Requester = coherence.NewRequester[dirMiss](node, n, fe, cfg.HitLatency, l, &l.Stats)
}

// HandleProbe consumes one HT broadcast probe (request class, also invoked
// locally by the co-located home). It always succeeds.
func (l *L2) HandleProbe(p *noc.Packet, cycle uint64) bool {
	info := coherence.InfoOf[Info](p)
	if info.Requester == l.Node() {
		// Our own transaction's probe returning: the ordering point has
		// serialised our request, which completes data-less upgrades — but
		// only if we still own the line. If an earlier-serialised write took
		// our ownership first (its probe preceded ours on the same
		// home-ordered path), the new owner's data response completes us
		// instead.
		if m := l.FindMSHRByReq(p.ReqID); m != nil && m.P.selfOwned {
			if l.ownsLine(p.Addr) != nil {
				m.DataArrived = true
				m.DataCycle = cycle
			} else {
				m.P.selfOwned = false
			}
		}
		return true
	}
	owner := l.ownsLine(p.Addr)
	if wb, ok := owner.(*coherence.Writeback); ok && info.MemServes {
		// The home already processed our PutM, so memory serves this
		// probe; the buffer's claim on the line is void.
		wb.Released = true
		owner = nil
	}
	switch Kind(p.Kind) {
	case ProbeS:
		if owner != nil {
			l.sendOwnerData(p, info, cycle, true, 0)
			l.ownerToShared(owner, cycle)
		}
	case ProbeX:
		// The home is the ordering point, so invalidations need no acks
		// (the paper's HT-D latency breakdown has no ack segment).
		if owner != nil {
			l.sendOwnerData(p, info, cycle, true, 0)
			l.ownerGone(p.Addr, owner, cycle)
		} else {
			l.Invalidate(p.Addr, cycle)
		}
	default:
		panic(fmt.Sprintf("directory: node %d got %s as probe", l.Node(), Kind(p.Kind)))
	}
	return true
}

// HandleFwd consumes an LPD forward (response class).
func (l *L2) HandleFwd(p *noc.Packet, cycle uint64) {
	info := coherence.InfoOf[Info](p)
	owner := l.ownsLine(p.Addr)
	if owner == nil {
		panic(fmt.Sprintf("directory: node %d forwarded %s for line %#x it does not own", l.Node(), Kind(p.Kind), p.Addr))
	}
	switch Kind(p.Kind) {
	case FwdGetS:
		l.sendOwnerData(p, info, cycle, false, 0)
		l.ownerToShared(owner, cycle)
	case FwdGetX:
		l.sendOwnerData(p, info, cycle, false, info.AckCount)
		l.ownerGone(p.Addr, owner, cycle)
	}
}

// HandleInv consumes a home invalidation, acking the requester.
func (l *L2) HandleInv(p *noc.Packet, cycle uint64) {
	l.Invalidate(p.Addr, cycle)
	l.sendAck(InvAck, coherence.InfoOf[Info](p).Requester, p.Addr, p.ReqID, cycle)
}

// ownsLine reports ownership: the cache line in M/O_D, or an active
// writeback buffer still holding the dirty data; nil if neither.
func (l *L2) ownsLine(addr uint64) any {
	if wb := l.FindWB(addr); wb != nil && !wb.Released {
		return wb
	}
	if ln := l.Array().Lookup(addr); ln != nil {
		st := coherence.State(ln.State())
		if st == coherence.Modified || st == coherence.OwnedDirty {
			return ln
		}
	}
	return nil
}

// ownerToShared applies a read-forward at the owner (M/O_D stays owner as
// O_D; a WB buffer keeps the data).
func (l *L2) ownerToShared(owner any, cycle uint64) {
	if ln, ok := owner.(*cache.Line); ok {
		l.SetState(ln, coherence.OwnedDirty, cycle)
	}
}

// ownerGone applies a write-forward at the owner: the line (or WB entry)
// surrenders ownership.
func (l *L2) ownerGone(addr uint64, owner any, cycle uint64) {
	switch o := owner.(type) {
	case *cache.Line:
		l.Invalidate(addr, cycle)
	case *coherence.Writeback:
		o.Released = true
	}
}

// sendOwnerData answers forward or probe p, whose info is info, with the
// line to the transaction's requester.
func (l *L2) sendOwnerData(p *noc.Packet, info *Info, cycle uint64, broadcast bool, acks int) {
	m := l.pool.New(noc.Packet{
		ID: l.ids.NextPacketID(), VNet: noc.UOResp, Src: l.Node(), Dst: info.Requester,
		Kind: int(DataD), Addr: p.Addr, ReqID: p.ReqID,
		Flits: l.cfg.DataFlits, InjectCycle: cycle,
	}, Info{
		ServedByCache: true, Broadcast: broadcast,
		HomeArrive: info.HomeArrive, Dispatch: info.Dispatch,
		OwnerArrive: cycle, AckCount: acks,
	})
	l.Send(cycle+uint64(l.cfg.HitLatency), &m.Packet, &m.Info.DataSent)
}

// sendAck sends a single-flit message.
func (l *L2) sendAck(kind Kind, dst int, addr uint64, reqID uint64, cycle uint64) {
	m := l.pool.New(noc.Packet{
		ID: l.ids.NextPacketID(), VNet: noc.UOResp, Src: l.Node(), Dst: dst,
		Kind: int(kind), Addr: addr, ReqID: reqID, Flits: 1, InjectCycle: cycle,
	}, Info{})
	l.Send(cycle, &m.Packet, nil)
}

// HandleResponse consumes DataD/InvAck/WBAck (response class).
func (l *L2) HandleResponse(p *noc.Packet, cycle uint64) {
	switch Kind(p.Kind) {
	case DataD:
		m := l.FindMSHRByReq(p.ReqID)
		if m == nil {
			panic(fmt.Sprintf("directory: node %d got DataD for unknown reqID %d", l.Node(), p.ReqID))
		}
		m.DataArrived = true
		m.DataCycle = cycle
		if ri := coherence.InfoOf[Info](p); ri != nil {
			m.P.resp = *ri
			m.P.acksExpected = ri.AckCount
		} else {
			m.P.acksExpected = 0
		}
		// Install and unblock the home at data arrival (GEMS-style
		// non-blocking completion); the core-visible completion still waits
		// for invalidation acks.
		l.install(m, cycle)
	case InvAck:
		m := l.FindMSHRByReq(p.ReqID)
		if m == nil {
			panic(fmt.Sprintf("directory: node %d got InvAck for unknown reqID %d", l.Node(), p.ReqID))
		}
		m.P.acksGot++
	case WBAck:
		l.AckWriteback(p.ReqID)
	default:
		panic(fmt.Sprintf("directory: node %d got unexpected response %s", l.Node(), Kind(p.Kind)))
	}
}

// install fills a miss's line (M for writes, S for reads) and sends the Done
// that unblocks its home.
func (l *L2) install(m *coherence.MSHR[dirMiss], cycle uint64) {
	st := coherence.Shared
	if m.Write {
		st = coherence.Modified
	}
	l.Install(m.Addr, st, 0, cycle)
	l.sendAck(Done, HomeFor(m.Addr, l.cfg.Nodes), m.Addr, m.ReqID, cycle)
	m.P.installed = true
}

// MissRequest implements coherence.Protocol: a unicast ReqGetS or ReqGetX to
// the line's home.
func (l *L2) MissRequest(m *coherence.MSHR[dirMiss], st coherence.State, cycle uint64) *noc.Packet {
	m.P = dirMiss{acksExpected: -1}
	kind := ReqGetS
	if m.Write {
		kind = ReqGetX
		if l.cfg.Variant == HT && st == coherence.OwnedDirty {
			// HT upgrade by the owner: nobody sends data; our own probe
			// returning from the ordering point completes the upgrade.
			m.P.selfOwned = true
			m.P.acksExpected = 0
		}
	}
	return &l.pool.New(noc.Packet{
		ID: l.ids.NextPacketID(), VNet: noc.GOReq, Src: l.Node(), SID: l.Node(),
		Dst:  HomeFor(m.Addr, l.cfg.Nodes),
		Kind: int(kind), Addr: m.Addr, ReqID: m.ReqID, Flits: 1, InjectCycle: cycle,
	}, Info{}).Packet
}

// MissReady implements coherence.Protocol: a miss completes once its data
// (or, for a self-owned upgrade, its own probe) arrived and every
// invalidation ack it was told to expect.
func (l *L2) MissReady(m *coherence.MSHR[dirMiss]) bool {
	return m.DataArrived && m.P.acksExpected >= 0 && m.P.acksGot >= m.P.acksExpected
}

// MissDone implements coherence.Protocol: a data-less completion (a
// self-owned upgrade) installs the line and unblocks the home now, and the
// completion carries the Figure 6b/6c breakdown.
func (l *L2) MissDone(m *coherence.MSHR[dirMiss], cycle uint64) coherence.Completion {
	if !m.P.installed {
		l.install(m, cycle)
	}
	var bd [stats.NumBreakdownComponents]uint64
	inj := m.InjectCycle
	r := &m.P.resp
	switch {
	case m.P.selfOwned:
		// Upgrade completed on acks alone; only the round trip matters.
	case r.ServedByCache && r.DataSent > 0 && r.OwnerArrive > 0:
		bd[stats.NetReqToDir] = coherence.Sub(r.HomeArrive, inj)
		bd[stats.DirAccess] = coherence.Sub(r.Dispatch, r.HomeArrive)
		if r.Broadcast {
			bd[stats.NetBcastReq] = coherence.Sub(r.OwnerArrive, r.Dispatch)
		} else {
			bd[stats.NetDirToSharer] = coherence.Sub(r.OwnerArrive, r.Dispatch)
		}
		bd[stats.SharerAccess] = coherence.Sub(r.DataSent, r.OwnerArrive)
		bd[stats.NetResp] = coherence.Sub(m.DataCycle, r.DataSent)
	case m.DataArrived:
		bd[stats.NetReqToDir] = coherence.Sub(r.HomeArrive, inj)
		bd[stats.DirAccess] = coherence.Sub(r.DataSent, r.HomeArrive)
		bd[stats.NetResp] = coherence.Sub(m.DataCycle, r.DataSent)
	}
	return coherence.Completion{ServedByCache: r.ServedByCache || m.P.selfOwned, SelfServed: m.P.selfOwned, Breakdown: bd}
}

// WritebackPackets implements coherence.Protocol: the PutM to the home on
// the request class and the data on the response class, both at once.
func (l *L2) WritebackPackets(wb *coherence.Writeback, cycle uint64) (putm, data *noc.Packet) {
	home := HomeFor(wb.Addr, l.cfg.Nodes)
	putm = &l.pool.New(noc.Packet{
		ID: l.ids.NextPacketID(), VNet: noc.GOReq, Src: l.Node(), SID: l.Node(), Dst: home,
		Kind: int(ReqPutM), Addr: wb.Addr, ReqID: wb.ReqID, Flits: 1, InjectCycle: cycle,
	}, Info{}).Packet
	data = &l.pool.New(noc.Packet{
		ID: l.ids.NextPacketID(), VNet: noc.UOResp, Src: l.Node(), Dst: home,
		Kind: int(WBData), Addr: wb.Addr, ReqID: wb.ReqID, Flits: l.cfg.DataFlits, InjectCycle: cycle,
	}, Info{}).Packet
	return putm, data
}
