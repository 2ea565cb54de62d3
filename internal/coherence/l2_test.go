package coherence

import (
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/stats"
)

// fakePort records injected packets.
type fakePort struct {
	reqs   []*noc.Packet
	resps  []*noc.Packet
	reject bool
}

func (f *fakePort) SendRequest(p *noc.Packet) bool {
	if f.reject {
		return false
	}
	f.reqs = append(f.reqs, p)
	return true
}

func (f *fakePort) SendResponse(p *noc.Packet) bool {
	if f.reject {
		return false
	}
	f.resps = append(f.resps, p)
	return true
}

type fakeMap struct{ mc int }

func (m fakeMap) HomeMC(addr uint64) int { return m.mc }

// rig bundles an L2 under test.
type rig struct {
	l2    *L2Controller
	port  *fakePort
	cycle uint64
	done  []Completion
}

// idCounter issues sequential packet IDs.
type idCounter uint64

func (c *idCounter) NextPacketID() uint64 { *c++; return uint64(*c) }

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	port := &fakePort{}
	ids := idCounter(1000)
	l2 := NewL2(3, cfg, port, &ids, fakeMap{mc: 0}, nil)
	r := &rig{l2: l2, port: port}
	l2.OnComplete = func(c Completion) { r.done = append(r.done, c) }
	return r
}

// step advances n cycles.
func (r *rig) step(n int) {
	for i := 0; i < n; i++ {
		r.l2.Evaluate(r.cycle)
		r.l2.Commit(r.cycle)
		r.cycle++
	}
}

// lastReq returns the most recent injected request.
func (r *rig) lastReq(t *testing.T) *noc.Packet {
	t.Helper()
	if len(r.port.reqs) == 0 {
		t.Fatal("no request injected")
	}
	return r.port.reqs[len(r.port.reqs)-1]
}

// ownOrdered feeds the controller its own request in global order.
func (r *rig) ownOrdered(t *testing.T, p *noc.Packet) {
	t.Helper()
	if !r.l2.ProcessOrdered(p, r.cycle, r.cycle) {
		t.Fatal("own ordered request rejected")
	}
}

// snoop feeds a remote request in global order.
func (r *rig) snoop(kind Kind, src int, addr uint64, reqID uint64) bool {
	p := &noc.Packet{VNet: noc.GOReq, Src: src, SID: src, Broadcast: true, Flits: 1,
		Kind: int(kind), Addr: addr, ReqID: reqID}
	return r.l2.ProcessOrdered(p, r.cycle, r.cycle)
}

// respMsg builds a response carrying ri, as a sender's pool would.
func respMsg(p noc.Packet, ri RespInfo) *noc.Packet {
	var pool *Pool[RespInfo]
	return &pool.New(p, ri).Packet
}

// data delivers a data response for the outstanding request.
func (r *rig) data(t *testing.T, reqID uint64, fromMem bool) {
	t.Helper()
	kind := Data
	if fromMem {
		kind = DataMem
	}
	r.l2.AcceptResponse(respMsg(noc.Packet{VNet: noc.UOResp, Kind: int(kind), ReqID: reqID, Flits: 3},
		RespInfo{ServedByCache: !fromMem}), r.cycle)
}

func TestReadMissFillsShared(t *testing.T) {
	r := newRig(t, nil)
	if !r.l2.CoreRequest(0x42, false, r.cycle) {
		t.Fatal("core request rejected")
	}
	r.step(2)
	req := r.lastReq(t)
	if Kind(req.Kind) != GetS || !req.Broadcast || req.Addr != 0x42 {
		t.Fatalf("unexpected request %v", req)
	}
	r.ownOrdered(t, req)
	r.data(t, req.ReqID, true)
	r.step(2)
	if got := r.l2.LineState(0x42); got != Shared {
		t.Fatalf("state = %s, want S", got)
	}
	if len(r.done) != 1 || r.done[0].Hit || r.done[0].Write {
		t.Fatalf("completion wrong: %+v", r.done)
	}
}

func TestWriteMissFillsModified(t *testing.T) {
	r := newRig(t, nil)
	r.l2.CoreRequest(0x99, true, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	if Kind(req.Kind) != GetX {
		t.Fatalf("kind = %s, want GetX", Kind(req.Kind))
	}
	r.ownOrdered(t, req)
	r.data(t, req.ReqID, false)
	r.step(2)
	if got := r.l2.LineState(0x99); got != Modified {
		t.Fatalf("state = %s, want M", got)
	}
}

func TestReadHitCompletesWithoutNetwork(t *testing.T) {
	r := newRig(t, nil)
	r.l2.Array().Insert(0x10, int32(Shared), 0)
	r.l2.RegionTracker().NoteFill(0x10)
	r.l2.CoreRequest(0x10, false, r.cycle)
	r.step(2)
	if len(r.port.reqs) != 0 {
		t.Fatal("hit must not touch the network")
	}
	if len(r.done) != 1 || !r.done[0].Hit {
		t.Fatalf("expected one hit completion, got %+v", r.done)
	}
}

func TestWriteToSharedIsUpgradeMiss(t *testing.T) {
	r := newRig(t, nil)
	r.l2.Array().Insert(0x10, int32(Shared), 0)
	r.l2.CoreRequest(0x10, true, r.cycle)
	r.step(2)
	if Kind(r.lastReq(t).Kind) != GetX {
		t.Fatal("write to S must send GetX")
	}
}

func TestUpgradeFromOwnedSelfServes(t *testing.T) {
	r := newRig(t, nil)
	r.l2.Array().Insert(0x10, int32(OwnedDirty), 0)
	r.l2.CoreRequest(0x10, true, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	r.step(2)
	if got := r.l2.LineState(0x10); got != Modified {
		t.Fatalf("state = %s, want M after self-served upgrade", got)
	}
	if len(r.done) != 1 || !r.done[0].SelfServed {
		t.Fatalf("completion should be self-served: %+v", r.done)
	}
}

func TestSnoopGetSOnModifiedRespondsAndDowngrades(t *testing.T) {
	r := newRig(t, nil)
	r.l2.Array().Insert(0x20, int32(Modified), 0)
	r.l2.RegionTracker().NoteFill(0x20)
	if !r.snoop(GetS, 7, 0x20, 55) {
		t.Fatal("snoop rejected")
	}
	r.step(15) // let the data response drain past HitLatency
	if got := r.l2.LineState(0x20); got != OwnedDirty {
		t.Fatalf("state = %s, want O_D", got)
	}
	if len(r.port.resps) != 1 {
		t.Fatalf("expected 1 data response, got %d", len(r.port.resps))
	}
	resp := r.port.resps[0]
	if Kind(resp.Kind) != Data || resp.Dst != 7 || resp.ReqID != 55 {
		t.Fatalf("bad response %v", resp)
	}
}

func TestSnoopGetXInvalidatesOwner(t *testing.T) {
	r := newRig(t, nil)
	r.l2.Array().Insert(0x20, int32(OwnedDirty), 0)
	r.l2.RegionTracker().NoteFill(0x20)
	r.snoop(GetX, 9, 0x20, 77)
	r.step(15)
	if got := r.l2.LineState(0x20); got != Invalid {
		t.Fatalf("state = %s, want I", got)
	}
	if len(r.port.resps) != 1 {
		t.Fatal("owner must forward data to the writer")
	}
}

func TestSnoopGetXInvalidatesSharerSilently(t *testing.T) {
	r := newRig(t, nil)
	r.l2.Array().Insert(0x20, int32(Shared), 0)
	r.l2.RegionTracker().NoteFill(0x20)
	r.snoop(GetX, 9, 0x20, 77)
	r.step(5)
	if r.l2.LineState(0x20) != Invalid {
		t.Fatal("sharer must invalidate")
	}
	if len(r.port.resps) != 0 {
		t.Fatal("sharer must not respond with data")
	}
}

func TestRegionTrackerFiltersForeignSnoops(t *testing.T) {
	r := newRig(t, nil)
	before := r.l2.Stats.SnoopsFiltered
	r.snoop(GetS, 5, 0xdead00, 1)
	if r.l2.Stats.SnoopsFiltered != before+1 {
		t.Fatal("snoop to an untracked region must be filtered")
	}
}

func TestFIDDeferralServesSnoopsAfterWriteCompletes(t *testing.T) {
	// Capacity 4 lets us exercise a GetS, GetS, GetX sequence without the
	// capacity stall (tested separately below).
	r := newRig(t, func(c *Config) { c.FIDCapacity = 4 })
	r.l2.CoreRequest(0x30, true, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	// Two reads and then a write arrive in global order while our write's
	// data is still in flight.
	if !r.snoop(GetS, 4, 0x30, 101) {
		t.Fatal("first GetS must be deferred, not stalled")
	}
	if !r.snoop(GetS, 5, 0x30, 102) {
		t.Fatal("second GetS must be deferred")
	}
	if !r.snoop(GetX, 6, 0x30, 103) {
		t.Fatal("GetX closes the FID list")
	}
	if got := r.l2.Stats.FIDDeferrals; got != 3 {
		t.Fatalf("deferrals = %d, want 3", got)
	}
	// After the GetX, the list is closed: further snoops pass through.
	if !r.snoop(GetS, 7, 0x30, 104) {
		t.Fatal("snoop after fidClosed must not stall")
	}
	r.data(t, req.ReqID, false)
	r.step(50)
	// Responses to the three deferred FIDs.
	if len(r.port.resps) != 3 {
		t.Fatalf("expected 3 deferred responses, got %d", len(r.port.resps))
	}
	// Final state after serving GetS, GetS, GetX: invalid.
	if got := r.l2.LineState(0x30); got != Invalid {
		t.Fatalf("state = %s, want I after deferred GetX", got)
	}
}

// TestDeferredGetXLeavesNoStaleData drives a write miss whose data is
// forwarded to a deferred GetX: the line ends Invalid, so the controller must
// hold no data for it afterwards, while the writer still receives the value.
func TestDeferredGetXLeavesNoStaleData(t *testing.T) {
	r := newRig(t, nil)
	r.l2.CoreAccess(0x30, true, 0xbeef, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	if !r.snoop(GetX, 6, 0x30, 103) {
		t.Fatal("GetX must be deferred")
	}
	r.data(t, req.ReqID, false)
	r.step(50)
	if got := r.l2.LineState(0x30); got != Invalid {
		t.Fatalf("state = %s, want I after deferred GetX", got)
	}
	if got := r.l2.ValueOf(0x30); got != 0 {
		t.Fatalf("ValueOf = %#x for an Invalid line, want 0", got)
	}
	if len(r.port.resps) != 1 {
		t.Fatalf("expected 1 forwarded response, got %d", len(r.port.resps))
	}
	if v := InfoOf[RespInfo](r.port.resps[0]).Value; v != 0xbeef {
		t.Fatalf("forwarded value = %#x, want 0xbeef", v)
	}
}

func TestFIDListFullStallsOrderedStream(t *testing.T) {
	r := newRig(t, nil)
	r.l2.CoreRequest(0x30, true, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	r.snoop(GetS, 4, 0x30, 101)
	r.snoop(GetS, 5, 0x30, 102)
	if r.snoop(GetS, 6, 0x30, 103) {
		t.Fatal("third GetS must stall (FID capacity 2)")
	}
	if r.l2.Stats.FIDStalls == 0 {
		t.Fatal("stall not counted")
	}
}

func TestEvictionWritesBackDirtyLine(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.CapacityBytes = 4 * 32 // 4 lines, one set
	})
	// Fill the set with dirty lines, then miss to force an eviction.
	for i := uint64(0); i < 4; i++ {
		r.l2.Array().Insert(i, int32(Modified), 0)
	}
	r.l2.CoreRequest(100, false, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	r.data(t, req.ReqID, true)
	r.step(2)
	// The eviction must have produced a PutM broadcast.
	var putm *noc.Packet
	for _, p := range r.port.reqs {
		if Kind(p.Kind) == PutM {
			putm = p
		}
	}
	if putm == nil {
		t.Fatal("dirty eviction must broadcast PutM")
	}
	// Our own PutM in global order triggers the data transfer to the MC.
	r.ownOrdered(t, putm)
	r.step(15)
	var wbData *noc.Packet
	for _, p := range r.port.resps {
		if Kind(p.Kind) == WBData {
			wbData = p
		}
	}
	if wbData == nil {
		t.Fatal("WBData not sent after PutM was ordered")
	}
	if wbData.Dst != 0 {
		t.Fatalf("WBData sent to node %d, want MC node 0", wbData.Dst)
	}
	// WBAck retires the writeback entry.
	r.l2.AcceptResponse(&noc.Packet{VNet: noc.UOResp, Kind: int(WBAck), ReqID: wbData.ReqID, Flits: 1}, r.cycle)
	if r.l2.findWBByReq(wbData.ReqID) != nil {
		t.Fatal("WB entry not freed by WBAck")
	}
}

// TestWritebackCarriesLineData checks that a dirty eviction sends the data
// the line held: the value written by a store reaches the memory controller
// in the WBData payload.
func TestWritebackCarriesLineData(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.CapacityBytes = 4 * 32 // 4 lines, one set
	})
	r.l2.CoreAccess(7, true, 0x77, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	r.data(t, req.ReqID, true)
	r.step(2)
	if got := r.l2.ValueOf(7); got != 0x77 {
		t.Fatalf("ValueOf = %#x after the store, want 0x77", got)
	}
	// Four reads to the same set evict the LRU line, the dirty one.
	for i := uint64(0); i < 4; i++ {
		r.l2.CoreRequest(100+i, false, r.cycle)
		r.step(2)
		req := r.lastReq(t)
		r.ownOrdered(t, req)
		r.data(t, req.ReqID, true)
		r.step(2)
	}
	var putm *noc.Packet
	for _, p := range r.port.reqs {
		if Kind(p.Kind) == PutM {
			putm = p
		}
	}
	if putm == nil || putm.Addr != 7 {
		t.Fatalf("dirty line 7 must be written back, got PutM %v", putm)
	}
	if r.l2.LineState(7) != Invalid || r.l2.ValueOf(7) != 0 {
		t.Fatal("the evicted line must leave the array")
	}
	r.ownOrdered(t, putm)
	r.step(15)
	for _, p := range r.port.resps {
		if Kind(p.Kind) == WBData {
			if v := InfoOf[RespInfo](p).Value; v != 0x77 {
				t.Fatalf("WBData value = %#x, want 0x77", v)
			}
			return
		}
	}
	t.Fatal("WBData not sent after PutM was ordered")
}

// TestCoreHitPathAllocFree pins the hit path at zero allocations: the core
// queue is popped in place, so staging the next request reuses its capacity.
func TestCoreHitPathAllocFree(t *testing.T) {
	r := newRig(t, nil)
	r.l2.OnComplete = func(Completion) {}
	r.l2.Array().Insert(0x10, int32(Modified), 0)
	allocs := testing.AllocsPerRun(100, func() {
		r.l2.CoreAccess(0x10, true, 5, r.cycle)
		r.step(1)
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f times per access, want 0", allocs)
	}
	if got := r.l2.ValueOf(0x10); got != 5 {
		t.Fatalf("ValueOf = %d after write hits, want 5", got)
	}
}

// TestFirstCoreAccessAllocFree: the staging slice is cut from the front
// ends' core-queue slab at build, so a fresh L2's first core request
// allocates nothing. Each call gets an L2 that never staged one, the
// warm-up call included.
func TestFirstCoreAccessAllocFree(t *testing.T) {
	const runs = 5
	fresh := make([]*rig, runs+1)
	for i := range fresh {
		fresh[i] = newRig(t, nil)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		fresh[next].l2.CoreAccess(0x10, false, 0, 0)
		next++
	})
	if allocs != 0 {
		t.Fatalf("a fresh L2's first core request allocates %.1f times, want 0", allocs)
	}
}

// TestSendQFirstAddSizesQueue: a queue's first Add makes room for eight
// sends at once, and a drain keeps that storage.
func TestSendQFirstAddSizesQueue(t *testing.T) {
	port := &fakePort{}
	var p noc.Packet
	allocs := testing.AllocsPerRun(10, func() {
		var q SendQ
		for i := 0; i < sendQFirst; i++ {
			q.Add(uint64(i), &p, nil)
		}
		q.Drain(port, sendQFirst)
		q.Add(0, &p, nil)
		port.resps = port.resps[:0]
	})
	if allocs != 1 {
		t.Fatalf("filling, draining and refilling a new queue allocates %.1f times, want 1", allocs)
	}
}

func TestWritebackHijackedByGetX(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.CapacityBytes = 4 * 32
	})
	for i := uint64(0); i < 4; i++ {
		r.l2.Array().Insert(i, int32(Modified), 0)
		r.l2.RegionTracker().NoteFill(i)
	}
	r.l2.CoreRequest(100, false, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	r.data(t, req.ReqID, true)
	r.step(2)
	var putm *noc.Packet
	for _, p := range r.port.reqs {
		if Kind(p.Kind) == PutM {
			putm = p
		}
	}
	if putm == nil {
		t.Fatal("no PutM")
	}
	// A GetX to the evicted line is ordered before our PutM: the WB buffer
	// still owns the data and must serve it, surrendering ownership.
	respsBefore := len(r.port.resps)
	r.snoop(GetX, 11, putm.Addr, 500)
	r.step(15)
	if len(r.port.resps) != respsBefore+1 {
		t.Fatal("WB buffer must forward data to the writer")
	}
	// Our PutM is now stale: no WBData follows.
	r.ownOrdered(t, putm)
	r.step(15)
	for _, p := range r.port.resps {
		if Kind(p.Kind) == WBData {
			t.Fatal("stale PutM must not send writeback data")
		}
	}
	if r.l2.Stats.StalePutM != 1 {
		t.Fatalf("StalePutM = %d, want 1", r.l2.Stats.StalePutM)
	}
}

func TestInvalidateOnFillForRacedRead(t *testing.T) {
	r := newRig(t, nil)
	r.l2.CoreRequest(0x40, false, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	// A write by another core is ordered after our read but before our data.
	r.snoop(GetX, 8, 0x40, 200)
	r.data(t, req.ReqID, true)
	r.step(2)
	if r.l2.LineState(0x40) != Invalid {
		t.Fatal("raced read must not install a stale line")
	}
	if len(r.done) != 1 {
		t.Fatal("the read itself still completes for the core")
	}
}

func TestNonPipelinedOccupancy(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Pipelined = false })
	r.l2.Array().Insert(0x50, int32(Modified), 0)
	r.l2.RegionTracker().NoteFill(0x50)
	r.snoop(GetS, 2, 0x50, 300)
	if r.l2.CanAcceptOrdered(r.cycle) {
		t.Fatal("non-pipelined controller must be busy after a snoop")
	}
	r.cycle += uint64(DefaultConfig().HitLatency)
	if !r.l2.CanAcceptOrdered(r.cycle) {
		t.Fatal("controller must free after the occupancy period")
	}
}

func TestInjectRetryWhenPortBlocked(t *testing.T) {
	r := newRig(t, nil)
	r.port.reject = true
	r.l2.CoreRequest(0x60, false, r.cycle)
	r.step(3)
	if len(r.port.reqs) != 0 {
		t.Fatal("request must not inject while the port rejects")
	}
	r.port.reject = false
	r.step(2)
	if len(r.port.reqs) != 1 {
		t.Fatal("request must retry once the port frees")
	}
}

func TestSameLineRequestsSerialize(t *testing.T) {
	r := newRig(t, nil)
	r.l2.CoreRequest(0x70, false, r.cycle)
	r.step(2)
	r.l2.CoreRequest(0x70, true, r.cycle)
	r.step(3)
	if len(r.port.reqs) != 1 {
		t.Fatalf("second same-line request must wait, got %d injections", len(r.port.reqs))
	}
	if r.l2.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", r.l2.Outstanding())
	}
}

func TestBreakdownReportedForCacheServedMiss(t *testing.T) {
	r := newRig(t, nil)
	r.l2.CoreRequest(0x80, false, r.cycle)
	r.step(2)
	req := r.lastReq(t)
	r.ownOrdered(t, req)
	r.l2.AcceptResponse(respMsg(noc.Packet{VNet: noc.UOResp, Kind: int(Data), ReqID: req.ReqID, Flits: 3},
		RespInfo{ServedByCache: true, ReqArrive: 5, ReqOrdered: 9, Service: 10, RespSent: 20}), r.cycle)
	r.step(2)
	if len(r.done) != 1 {
		t.Fatal("no completion")
	}
	bd := r.done[0].Breakdown
	if bd[stats.SharerAccess] != 10 {
		t.Fatalf("sharer access = %d, want 10", bd[stats.SharerAccess])
	}
	if !r.done[0].ServedByCache {
		t.Fatal("completion must be marked cache-served")
	}
}

func TestKindAndStateStrings(t *testing.T) {
	kinds := []Kind{GetS, GetX, PutM, Data, DataMem, WBData, WBAck, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if !GetS.Ordered() || !PutM.Ordered() || Data.Ordered() {
		t.Fatal("Ordered classification wrong")
	}
	states := []State{Invalid, Shared, Modified, OwnedDirty, State(9)}
	for _, s := range states {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
	if !Modified.owner() || !OwnedDirty.owner() || Shared.owner() {
		t.Fatal("owner classification wrong")
	}
}
