// Package mem models SCORPIO's memory-side agents: two dual-port Cadence
// DDR2 controllers attached at four edge routers (Table 1), replaced — as in
// the paper's own trace-driven RTL evaluation — by a functional,
// fully-pipelined fixed-latency DRAM model.
//
// Each controller snoops the globally ordered request stream for the
// addresses it homes and keeps the on-chip directory cache of Table 1 (one
// owner indication and one valid bit per tracked line): it supplies data
// exactly when no cache owns the line, and it sinks writebacks, holding
// requests that race with an in-flight writeback until the data arrives.
package mem

import (
	"fmt"

	"scorpio/internal/cache"
	"scorpio/internal/coherence"
	"scorpio/internal/noc"
)

// Config holds memory-controller parameters.
type Config struct {
	// DirAccessLatency is the on-chip directory cache access time (10
	// cycles, matching the GEMS model of Section 5).
	DirAccessLatency int
	// DRAMLatency is the fully pipelined off-chip access time (90 cycles,
	// the functional model of Section 5's RTL methodology).
	DRAMLatency int
	// DataFlits is the flit count of data responses.
	DataFlits int
	// TotalDirCacheBytes is the machine-wide directory cache budget, split
	// across the MC ports (the paper equalises 256KB across all three
	// protocols in Section 5.1; the chip itself carries 128KB).
	TotalDirCacheBytes int
	// EntryBytes is the footprint of one owner/valid record (2 bytes, like
	// HT's two-bit entries plus tag).
	EntryBytes int
	// DirMissPenalty is the extra off-chip latency when the directory cache
	// misses on a memory-served request.
	DirMissPenalty int
	// Ports is the number of MC attach points sharing the budget.
	Ports int
}

// DefaultConfig returns the paper's memory model parameters.
func DefaultConfig() Config {
	return Config{
		DirAccessLatency: 10, DRAMLatency: 90, DataFlits: 3,
		TotalDirCacheBytes: 256 * 1024, EntryBytes: 2, DirMissPenalty: 90, Ports: 4,
	}
}

// Stats counts memory activity.
type Stats struct {
	StalePutM      uint64
	RacedRequests  uint64 // requests held for an in-flight writeback
	DirCacheMisses uint64
}

// dirEntry is one directory-cache record: memory's data word for the line,
// the owning tile (-1 when memory owns) and whether memory's copy is valid
// (false while a writeback's data is still in flight). Entries are held by
// value; an absent entry reads as the default (memory owns, valid, zero).
type dirEntry struct {
	value   uint64
	owner   int32
	valid   bool
	touched bool // served at least once (directory history exists)
}

// queuedReq is an ordered request held until a racing writeback completes.
type queuedReq struct {
	addr    uint64
	src     int
	reqID   uint64
	arrive  uint64
	ordered uint64
}

// earlyWB names writeback data that reached the controller before the
// writer's PutM was processed in the global order here.
type earlyWB struct {
	addr  uint64
	src   int
	reqID uint64
}

// Controller is one memory-controller port on the mesh.
type Controller struct {
	cfg    Config
	node   int
	nic    coherence.NetPort
	ids    coherence.IDSource
	memMap coherence.MemMap
	pool   *coherence.Pool[coherence.RespInfo]
	dir    map[uint64]dirEntry
	dirC   *cache.Array // finite directory cache (latency only)
	// held lists, in the order they were ordered here, the requests that
	// wait for a racing writeback's data; early lists writeback data whose
	// PutM is still to be ordered here. Both stay nil until the first such
	// race.
	held  []queuedReq
	early []earlyWB
	sendQ coherence.SendQ
	Stats Stats

	// Controllers sit side by side in one slice and belong to different
	// shards; the pad rounds the stride to whole cache lines.
	_ [16]byte
}

// mapPresize caps the directory map's initial size: the map holds every
// line a run touches, which no budget bounds, so it starts at the size the
// facade's default budget gives and grows from there.
const mapPresize = 1024

// New builds a memory-controller port at the given node; it draws packet
// IDs from ids and builds its messages from pool, the machine's (nil
// allocates each one).
func New(node int, cfg Config, n coherence.NetPort, ids coherence.IDSource, mm coherence.MemMap,
	pool *coherence.Pool[coherence.RespInfo]) *Controller {
	return &NewControllers([]int{node}, cfg, []coherence.NetPort{n}, []coherence.IDSource{ids}, mm, pool)[0]
}

// NewControllers builds the ports at nodes as New builds one, port i
// sending through ports[i] and drawing IDs from ids[i]. The controllers are
// one slice, and their directory caches' lines one slab.
func NewControllers(nodes []int, cfg Config, ports []coherence.NetPort, ids []coherence.IDSource, mm coherence.MemMap,
	pool *coherence.Pool[coherence.RespInfo]) []Controller {
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	entries := cfg.TotalDirCacheBytes / cfg.Ports / cfg.EntryBytes
	if entries < 4 {
		entries = 4
	}
	dirC := cache.NewArraysBytes(len(nodes), entries*cfg.EntryBytes, cfg.EntryBytes, 4)
	mcs := make([]Controller, len(nodes))
	for i, node := range nodes {
		mcs[i] = Controller{
			cfg: cfg, node: node, nic: ports[i], ids: ids[i], memMap: mm, pool: pool,
			dir:  make(map[uint64]dirEntry, min(entries, mapPresize)),
			dirC: &dirC[i],
		}
	}
	return mcs
}

// Node returns the attach node.
func (c *Controller) Node() int { return c.node }

// entry returns a copy of the directory record for a homed line, or the
// default (memory owns, valid) before its first update; callers store
// changes back into c.dir.
func (c *Controller) entry(addr uint64) dirEntry {
	if e, ok := c.dir[addr]; ok {
		return e
	}
	return dirEntry{owner: -1, valid: true}
}

// homed reports whether this port is responsible for the address.
func (c *Controller) homed(addr uint64) bool { return c.memMap.HomeMC(addr) == c.node }

// CanAcceptOrdered implements the split agent interface; the memory path is
// fully pipelined.
func (c *Controller) CanAcceptOrdered(cycle uint64) bool { return true }

// ProcessOrdered snoops one globally ordered request.
func (c *Controller) ProcessOrdered(p *noc.Packet, arrive, cycle uint64) bool {
	if !c.homed(p.Addr) {
		return true
	}
	e := c.entry(p.Addr)
	switch coherence.Kind(p.Kind) {
	case coherence.GetS:
		if e.owner >= 0 {
			return true // an on-chip owner supplies the data
		}
		c.serveOrHold(p.Src, p.ReqID, p.Addr, e.valid, arrive, cycle)
	case coherence.GetX:
		memoryServes := e.owner < 0
		// The writer becomes the dirty owner either way.
		e.owner = int32(p.Src)
		c.dir[p.Addr] = e
		if memoryServes {
			c.serveOrHold(p.Src, p.ReqID, p.Addr, e.valid, arrive, cycle)
		}
	case coherence.PutM:
		if int(e.owner) != p.Src {
			c.Stats.StalePutM++
			return true // stale writeback: ownership already moved on
		}
		e.owner = -1
		// Unless the data already arrived, it is still in flight on the
		// response network.
		e.valid = c.takeEarly(p.Addr, p.Src, p.ReqID)
		c.dir[p.Addr] = e
	}
	return true
}

// serveOrHold issues a DRAM read, or parks the request while the line's
// writeback data is still in flight.
func (c *Controller) serveOrHold(src int, reqID uint64, addr uint64, valid bool, arrive, cycle uint64) {
	if !valid {
		c.held = append(c.held, queuedReq{addr: addr, src: src, reqID: reqID, arrive: arrive, ordered: cycle})
		c.Stats.RacedRequests++
		return
	}
	c.serve(src, reqID, addr, arrive, cycle, cycle)
}

// serve schedules a DataMem response after the directory and DRAM latencies;
// re-fetching an evicted directory-cache entry adds an off-chip access (a
// first touch allocates the entry with the data fetch).
func (c *Controller) serve(src int, reqID uint64, addr uint64, arrive, ordered, start uint64) {
	lat := uint64(c.cfg.DirAccessLatency + c.cfg.DRAMLatency)
	e := c.entry(addr)
	if c.dirC.Get(addr) == nil {
		c.dirC.Insert(addr, 0, 0)
		if e.touched {
			c.Stats.DirCacheMisses++
			lat += uint64(c.cfg.DirMissPenalty)
		}
	}
	e.touched = true
	c.dir[addr] = e
	m := c.pool.New(noc.Packet{
		ID: c.ids.NextPacketID(), VNet: noc.UOResp, Src: c.node, Dst: src,
		Kind: int(coherence.DataMem), Addr: addr, ReqID: reqID,
		Flits: c.cfg.DataFlits, InjectCycle: ordered,
	}, coherence.RespInfo{
		Value:         e.value,
		ServedByCache: false,
		ReqArrive:     arrive,
		ReqOrdered:    ordered,
		DirAccess:     (start - ordered) + lat,
		Service:       uint64(c.cfg.DRAMLatency),
	})
	c.sendQ.Add(start+lat, &m.Packet, &m.Info.RespSent)
}

// AcceptResponse consumes writeback data arriving on the response network.
func (c *Controller) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	if coherence.Kind(p.Kind) != coherence.WBData {
		panic(fmt.Sprintf("mem: node %d got unexpected response kind %d", c.node, p.Kind))
	}
	e := c.entry(p.Addr)
	if int(e.owner) == p.Src {
		// The writer still owns the line here: its PutM is yet to be
		// ordered, and must then find memory's copy valid.
		c.early = append(c.early, earlyWB{addr: p.Addr, src: p.Src, reqID: p.ReqID})
	}
	e.valid = true
	if ri := coherence.InfoOf[coherence.RespInfo](p); ri != nil {
		e.value = ri.Value
	}
	c.dir[p.Addr] = e
	// Acknowledge the writeback after the DRAM write completes.
	ack := c.pool.New(noc.Packet{
		ID: c.ids.NextPacketID(), VNet: noc.UOResp, Src: c.node, Dst: p.Src,
		Kind: int(coherence.WBAck), Addr: p.Addr, ReqID: p.ReqID, Flits: 1, InjectCycle: cycle,
	}, coherence.RespInfo{})
	c.sendQ.Add(cycle+uint64(c.cfg.DRAMLatency), &ack.Packet, nil)
	// Release, in order, the requests that raced the writeback.
	kept := c.held[:0]
	for _, q := range c.held {
		if q.addr == p.Addr {
			c.serve(q.src, q.reqID, p.Addr, q.arrive, q.ordered, cycle+uint64(c.cfg.DRAMLatency))
		} else {
			kept = append(kept, q)
		}
	}
	c.held = kept
	return true
}

// takeEarly reports whether a writeback's data arrived before its PutM, and
// forgets the arrival.
func (c *Controller) takeEarly(addr uint64, src int, reqID uint64) bool {
	for i, w := range c.early {
		if w == (earlyWB{addr: addr, src: src, reqID: reqID}) {
			c.early = append(c.early[:i], c.early[i+1:]...)
			return true
		}
	}
	return false
}

// Evaluate injects scheduled responses whose latency elapsed.
func (c *Controller) Evaluate(cycle uint64) { c.sendQ.Drain(c.nic, cycle) }

// Commit implements sim.Component.
func (c *Controller) Commit(cycle uint64) {}

// Idle implements sim.Idler: the DRAM model is pure scheduled sends, so the
// controller is skippable whenever every queued send is still in the future
// (a send whose latency elapsed but was rejected by the NIC must retry every
// cycle). Held raced requests are released by AcceptResponse, which runs
// inside this unit.
func (c *Controller) Idle() bool { return c.sendQ.Idle() }

// NextEventCycle implements sim.NextEventer: the earliest scheduled send.
func (c *Controller) NextEventCycle(cycle uint64) uint64 { return c.sendQ.NextEventCycle(cycle) }

// OwnerOf reports the directory's view of a line's owner (-1 = memory) for
// tests.
func (c *Controller) OwnerOf(addr uint64) int {
	return int(c.entry(addr).owner)
}
