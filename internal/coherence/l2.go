package coherence

import (
	"fmt"

	"scorpio/internal/cache"
	"scorpio/internal/noc"
	"scorpio/internal/slab"
	"scorpio/internal/stats"
)

// Config holds the L2 controller parameters.
type Config struct {
	// CapacityBytes/LineBytes/Ways describe the array (chip: 128KB/32B/4).
	CapacityBytes int
	LineBytes     int
	Ways          int
	// HitLatency is the L2 data-access latency in cycles (10, per the
	// GEMS-matched model in Section 5).
	HitLatency int
	// SnoopTagLatency is the tag-only lookup cost for snoops that miss.
	SnoopTagLatency int
	// NonPLOccupancy is the per-snoop occupancy of the non-pipelined
	// controller (Figure 10's Non-PL); the pipelined one accepts one per
	// cycle.
	NonPLOccupancy int
	// Pipelined selects the fully pipelined L2 of Section 5.3; when false
	// the controller accepts one ordered request per occupancy period
	// (Figure 10's Non-PL configuration).
	Pipelined bool
	// MSHRs bounds outstanding misses (2 on the chip per the AHB interface,
	// 16 in the paper's GEMS runs).
	MSHRs int
	// FIDCapacity bounds each write MSHR's forwarding-ID list (2).
	FIDCapacity int
	// UseRegionTracker enables the snoop filter (Table 1: 4KB regions, 128
	// entries).
	UseRegionTracker bool
	RegionBytes      int
	RegionEntries    int
	// CoreQueueDepth bounds buffered core requests.
	CoreQueueDepth int
	// DataFlits is the flit count of data responses (from the NoC config).
	DataFlits int
}

// DefaultConfig returns the chip's L2 parameters.
func DefaultConfig() Config {
	return Config{
		CapacityBytes:    128 * 1024,
		LineBytes:        32,
		Ways:             4,
		HitLatency:       10,
		SnoopTagLatency:  2,
		NonPLOccupancy:   4,
		Pipelined:        true,
		MSHRs:            2,
		FIDCapacity:      2,
		UseRegionTracker: true,
		RegionBytes:      4096,
		RegionEntries:    128,
		CoreQueueDepth:   4,
		DataFlits:        3,
	}
}

// Completion reports a finished core request to the trace injector.
type Completion struct {
	Node          int // the tile whose core issued the request
	Addr          uint64
	Write         bool
	Value         uint64 // value read (loads) or written (stores)
	Issue         uint64
	Done          uint64
	Hit           bool
	ServedByCache bool // for misses: cache-to-cache vs memory
	SelfServed    bool // upgrade satisfied by the tile's own owned line
	Breakdown     [stats.NumBreakdownComponents]uint64
}

// Stats counts protocol activity.
type Stats struct {
	ReqStats
	SnoopsSeen     uint64
	SnoopsFiltered uint64
	FIDDeferrals   uint64
	FIDStalls      uint64
	StalePutM      uint64
}

// fid is one deferred snoop awaiting our in-flight write (SID + request
// entry ID, Section 4.2).
type fid struct {
	src   int
	reqID uint64
	kind  Kind
}

// snoopMiss is the snoopy protocol's state for one outstanding miss.
type snoopMiss struct {
	ordered          bool
	selfServed       bool
	invalidateOnFill bool
	fidClosed        bool
	orderedCycle     uint64
	arriveSelf       uint64
	resp             RespInfo
	fids             []fid
}

// L2Controller is the tile's snoopy protocol engine: the shared Requester
// front end plus ordered snoops, FID lists, its own PutM's ordering and the
// Non-PL occupancy. It implements the split agent interface
// (CanAcceptOrdered/ProcessOrdered/AcceptResponse) composed into a nic.Agent
// by the system layer, and sim.Component.
type L2Controller struct {
	Requester[snoopMiss]
	cfg       Config
	ids       IDSource
	memMap    MemMap
	pool      *Pool[RespInfo]
	busyUntil uint64
	Stats     Stats
	// filter is the snoop filter the front end's rt points at when on.
	filter cache.RegionTracker

	// Controllers sit side by side in one slab and belong to different
	// shards; the pad rounds the stride to whole cache lines.
	_ [24]byte
}

// IDSource issues the IDs of the packets a controller builds: a stream of
// its own on a parallel machine, or a serial machine's mesh-wide counter.
type IDSource interface {
	NextPacketID() uint64
}

// l2Slabs is what a machine's L2 controllers are cut from, besides the
// controllers themselves.
type l2Slabs struct {
	fe      *FrontEnds[snoopMiss]
	fids    slab.Slab[fid]
	filters []cache.RegionTracker
}

func makeL2Slabs(n int, cfg Config) l2Slabs {
	s := l2Slabs{
		fe:   NewFrontEnds[snoopMiss](n, cfg.CapacityBytes, cfg.LineBytes, cfg.Ways, cfg.MSHRs, cfg.CoreQueueDepth),
		fids: slab.Make[fid](n * cfg.MSHRs * cfg.FIDCapacity),
	}
	if cfg.UseRegionTracker {
		s.filters = cache.NewRegionTrackers(n, cfg.RegionBytes, cfg.LineBytes, cfg.RegionEntries)
	}
	return s
}

// NewL2 builds a controller for the given node; it draws packet IDs from
// ids and builds its messages from pool, the machine's (nil allocates each
// one).
func NewL2(node int, cfg Config, n NetPort, ids IDSource, mm MemMap, pool *Pool[RespInfo]) *L2Controller {
	s := makeL2Slabs(1, cfg)
	l := new(L2Controller)
	l.init(node, cfg, n, ids, mm, pool, &s)
	return l
}

// NewL2s builds the controllers of nodes 0..len(ports)-1 as NewL2 builds
// one, node i sending through ports[i] and drawing IDs from ids[i]. The
// controllers are one slice, and their arrays, lines, MSHRs, FID lists,
// core queues and snoop-filter tables one slab per kind.
func NewL2s(cfg Config, ports []NetPort, ids []IDSource, mm MemMap, pool *Pool[RespInfo]) []L2Controller {
	s := makeL2Slabs(len(ports), cfg)
	l2s := make([]L2Controller, len(ports))
	for i := range l2s {
		l2s[i].init(i, cfg, ports[i], ids[i], mm, pool, &s)
	}
	return l2s
}

// init builds node's controller, cut from s.
func (l *L2Controller) init(node int, cfg Config, n NetPort, ids IDSource, mm MemMap, pool *Pool[RespInfo], s *l2Slabs) {
	l.cfg, l.ids, l.memMap, l.pool = cfg, ids, mm, pool
	l.Requester = NewRequester[snoopMiss](node, n, s.fe, cfg.HitLatency, l, &l.Stats.ReqStats)
	// Each MSHR keeps its FID list's backing array across reuse.
	for i := range l.mshrs {
		l.mshrs[i].P.fids = s.fids.Cut(cfg.FIDCapacity)[:0]
	}
	if cfg.UseRegionTracker {
		l.filter, s.filters = s.filters[0], s.filters[1:]
		l.rt = &l.filter
	}
}

// RegionTracker exposes the snoop filter (may be nil).
func (l *L2Controller) RegionTracker() *cache.RegionTracker { return l.rt }

// CanAcceptOrdered reports whether the controller can consume an ordered
// request this cycle (occupancy model for the Non-PL configuration).
func (l *L2Controller) CanAcceptOrdered(cycle uint64) bool {
	return l.cfg.Pipelined || cycle >= l.busyUntil
}

// charge models controller occupancy.
func (l *L2Controller) charge(cycle uint64, cost int) {
	if !l.cfg.Pipelined {
		l.busyUntil = cycle + uint64(cost)
	}
}

// ProcessOrdered consumes one globally ordered request; it returns false to
// stall the ordered stream (FID list full).
func (l *L2Controller) ProcessOrdered(p *noc.Packet, arrive, cycle uint64) bool {
	kind := Kind(p.Kind)
	if p.Src == l.node {
		l.processOwnOrdered(p, kind, arrive, cycle)
		return true
	}
	l.Stats.SnoopsSeen++
	// Snoop against an outstanding miss to the same line.
	if m := l.findMSHR(p.Addr); m != nil && m.P.ordered {
		x := &m.P
		switch {
		case m.Write && !x.fidClosed && kind != PutM:
			if len(x.fids) >= l.cfg.FIDCapacity {
				l.Stats.FIDStalls++
				return false
			}
			x.fids = append(x.fids, fid{src: p.Src, reqID: p.ReqID, kind: kind})
			if kind == GetX {
				x.fidClosed = true
			}
			l.Stats.FIDDeferrals++
			l.charge(cycle, 1)
			return true
		case m.Write && x.fidClosed:
			// Ownership already promised onward; the next writer serves this.
			l.charge(cycle, 1)
			return true
		case !m.Write:
			if kind == GetX {
				x.invalidateOnFill = true
			}
			l.charge(cycle, 1)
			return true
		}
	}
	// Snoop against an in-flight writeback (still the dirty owner until the
	// PutM is ordered).
	if wb := l.FindWB(p.Addr); wb != nil && !wb.Released && kind != PutM {
		l.respondData(p, arrive, cycle, cycle+uint64(l.cfg.HitLatency), wb.Value)
		if kind == GetX {
			wb.Released = true
		}
		l.charge(cycle, l.cfg.NonPLOccupancy)
		return true
	}
	// Destination filtering: a region-tracker miss answers the snoop with no
	// L2 lookup.
	if kind != PutM && l.rt != nil && !l.rt.MayBeCached(p.Addr) {
		l.Stats.SnoopsFiltered++
		l.charge(cycle, 1)
		return true
	}
	// Stable-state snoop.
	ln := l.arr.Lookup(p.Addr)
	st := Invalid
	if ln != nil {
		st = State(ln.State())
	}
	switch kind {
	case GetS:
		if st.owner() {
			l.respondData(p, arrive, cycle, cycle+uint64(l.cfg.HitLatency), l.arr.Data(p.Addr))
			l.SetState(ln, OwnedDirty, cycle)
			l.charge(cycle, l.cfg.NonPLOccupancy)
			return true
		}
	case GetX:
		if st.owner() {
			l.respondData(p, arrive, cycle, cycle+uint64(l.cfg.HitLatency), l.arr.Data(p.Addr))
			l.Invalidate(p.Addr, cycle)
			l.charge(cycle, l.cfg.NonPLOccupancy)
			return true
		}
		if st == Shared {
			l.Invalidate(p.Addr, cycle)
		}
	case PutM:
		// Another tile's writeback: nothing to do.
	}
	l.charge(cycle, l.cfg.SnoopTagLatency)
	return true
}

// processOwnOrdered handles the tile's own request reaching its global
// position.
func (l *L2Controller) processOwnOrdered(p *noc.Packet, kind Kind, arrive, cycle uint64) {
	if kind == PutM {
		wb := l.findWBByReq(p.ReqID)
		if wb == nil {
			panic(fmt.Sprintf("coherence: node %d saw own PutM for unknown reqID %d", l.node, p.ReqID))
		}
		if wb.Released {
			// A GetX took ownership before the PutM was ordered; the memory
			// controller ignores the stale PutM and no data is sent.
			l.Stats.StalePutM++
			l.freeWB(wb)
			return
		}
		// Ordered, the PutM hands the line to memory: send it the dirty data
		// and stop answering snoops.
		wb.Released = true
		data := l.pool.New(noc.Packet{
			ID: l.ids.NextPacketID(), VNet: noc.UOResp, Src: l.node, Dst: l.memMap.HomeMC(p.Addr),
			Kind: int(WBData), Addr: p.Addr, ReqID: p.ReqID, Flits: l.cfg.DataFlits, InjectCycle: cycle,
		}, RespInfo{Value: wb.Value})
		l.Send(cycle+uint64(l.cfg.HitLatency), &data.Packet, nil)
		return
	}
	m := l.FindMSHRByReq(p.ReqID)
	if m == nil {
		panic(fmt.Sprintf("coherence: node %d saw own %s for unknown reqID %d", l.node, kind, p.ReqID))
	}
	m.P.ordered = true
	m.P.orderedCycle = cycle
	m.P.arriveSelf = arrive
	if m.Write {
		// An upgrade from an owned state self-serves the data.
		if ln := l.arr.Lookup(m.Addr); ln != nil && State(ln.State()).owner() {
			m.DataArrived = true
			m.DataCycle = cycle
			m.P.resp.Value = l.arr.Data(m.Addr)
			m.P.selfServed = true
		}
	}
}

// respondData schedules a cache-to-cache data response for an ordered snoop.
func (l *L2Controller) respondData(p *noc.Packet, arrive, cycle, readyAt uint64, value uint64) {
	m := l.pool.New(noc.Packet{
		ID: l.ids.NextPacketID(), VNet: noc.UOResp, Src: l.node, Dst: p.Src,
		Kind: int(Data), Addr: p.Addr, ReqID: p.ReqID, Flits: l.cfg.DataFlits,
		InjectCycle: cycle,
	}, RespInfo{
		Value:         value,
		ServedByCache: true,
		ReqArrive:     arrive,
		ReqOrdered:    cycle,
		Service:       readyAt - cycle,
	})
	l.Send(readyAt, &m.Packet, &m.Info.RespSent)
}

// AcceptResponse consumes an unordered response delivered by the NIC.
func (l *L2Controller) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	switch Kind(p.Kind) {
	case Data, DataMem:
		m := l.FindMSHRByReq(p.ReqID)
		if m == nil {
			panic(fmt.Sprintf("coherence: node %d got %s for unknown reqID %d", l.node, Kind(p.Kind), p.ReqID))
		}
		m.DataArrived = true
		m.DataCycle = cycle
		if ri := InfoOf[RespInfo](p); ri != nil {
			m.P.resp = *ri
		}
		return true
	case WBAck:
		l.AckWriteback(p.ReqID)
		return true
	default:
		panic(fmt.Sprintf("coherence: node %d got unexpected response kind %s", l.node, Kind(p.Kind)))
	}
}

// MissRequest implements Protocol: a broadcast GetS or GetX on the ordered
// network.
func (l *L2Controller) MissRequest(m *MSHR[snoopMiss], st State, cycle uint64) *noc.Packet {
	m.P = snoopMiss{fids: m.P.fids[:0]}
	kind := GetS
	if m.Write {
		kind = GetX
	}
	return &l.pool.New(noc.Packet{
		ID: l.ids.NextPacketID(), VNet: noc.GOReq, Src: l.node, SID: l.node, Broadcast: true,
		Flits: 1, Kind: int(kind), Addr: m.Addr, ReqID: m.ReqID, InjectCycle: cycle,
	}, RespInfo{}).Packet
}

// MissReady implements Protocol: a miss completes once its own request was
// ordered and its data arrived.
func (l *L2Controller) MissReady(m *MSHR[snoopMiss]) bool { return m.P.ordered && m.DataArrived }

// MissDone implements Protocol: it installs the line, serves the deferred
// FIDs and returns the completion with the Figure 6b/6c breakdown.
func (l *L2Controller) MissDone(m *MSHR[snoopMiss], cycle uint64) Completion {
	x := &m.P
	if m.Write {
		// Serve deferred snoops in their global order, each after a data
		// access; every deferred reader/writer observes our new value.
		final := Modified
		for i, f := range x.fids {
			readyAt := cycle + uint64((i+1)*l.cfg.HitLatency)
			d := l.pool.New(noc.Packet{
				ID: l.ids.NextPacketID(), VNet: noc.UOResp, Src: l.node, Dst: f.src,
				Kind: int(Data), Addr: m.Addr, ReqID: f.reqID, Flits: l.cfg.DataFlits,
				InjectCycle: cycle,
			}, RespInfo{Value: m.Value, ServedByCache: true, ReqArrive: x.arriveSelf, ReqOrdered: x.orderedCycle, Service: uint64(l.cfg.HitLatency)})
			l.Send(readyAt, &d.Packet, &d.Info.RespSent)
			switch f.kind {
			case GetS:
				final = OwnedDirty
			case GetX:
				final = Invalid
			}
		}
		if final == Invalid {
			l.Invalidate(m.Addr, cycle)
		} else {
			l.Install(m.Addr, final, m.Value, cycle)
		}
	} else if !x.invalidateOnFill {
		// Unless a later writer already claimed the line: then the data
		// reaches the core but is not cached.
		l.Install(m.Addr, Shared, x.resp.Value, cycle)
	}
	var bd [stats.NumBreakdownComponents]uint64
	inj := m.InjectCycle
	switch {
	case x.selfServed:
		bd[stats.ReqOrdering] = x.orderedCycle - inj
	case x.resp.ServedByCache:
		bd[stats.NetBcastReq] = Sub(x.resp.ReqArrive, inj)
		bd[stats.ReqOrdering] = Sub(x.resp.ReqOrdered, x.resp.ReqArrive)
		bd[stats.SharerAccess] = x.resp.Service
		bd[stats.NetResp] = Sub(m.DataCycle, x.resp.RespSent)
	default:
		bd[stats.NetBcastReq] = Sub(x.resp.ReqArrive, inj)
		bd[stats.ReqOrdering] = Sub(x.resp.ReqOrdered, x.resp.ReqArrive)
		bd[stats.DirAccess] = x.resp.DirAccess
		bd[stats.NetResp] = Sub(m.DataCycle, x.resp.RespSent)
	}
	val := x.resp.Value
	if m.Write {
		val = m.Value
	}
	return Completion{Value: val, ServedByCache: x.resp.ServedByCache || x.selfServed,
		SelfServed: x.selfServed, Breakdown: bd}
}

// WritebackPackets implements Protocol: a broadcast PutM on the ordered
// network; the data follows once the PutM is ordered.
func (l *L2Controller) WritebackPackets(wb *Writeback, cycle uint64) (putm, data *noc.Packet) {
	return &l.pool.New(noc.Packet{
		ID: l.ids.NextPacketID(), VNet: noc.GOReq, Src: l.node, SID: l.node, Broadcast: true,
		Flits: 1, Kind: int(PutM), Addr: wb.Addr, ReqID: wb.ReqID, InjectCycle: cycle,
	}, RespInfo{}).Packet, nil
}
