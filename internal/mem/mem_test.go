package mem

import (
	"testing"

	"scorpio/internal/coherence"
	"scorpio/internal/noc"
)

type fakePort struct {
	resps []*noc.Packet
}

func (f *fakePort) SendRequest(p *noc.Packet) bool { panic("MC never sends requests") }
func (f *fakePort) SendResponse(p *noc.Packet) bool {
	f.resps = append(f.resps, p)
	return true
}

type fakeMap struct{ mc int }

func (m fakeMap) HomeMC(addr uint64) int { return m.mc }

type mcRig struct {
	mc    *Controller
	port  *fakePort
	cycle uint64
}

func newMCRig() *mcRig {
	port := &fakePort{}
	id := uint64(0)
	mc := New(0, DefaultConfig(), port, func() uint64 { id++; return id }, fakeMap{mc: 0}, nil)
	return &mcRig{mc: mc, port: port}
}

func (r *mcRig) step(n int) {
	for i := 0; i < n; i++ {
		r.mc.Evaluate(r.cycle)
		r.mc.Commit(r.cycle)
		r.cycle++
	}
}

// wbData builds writeback data carrying value, as the evicting tile's pool
// would.
func wbData(p noc.Packet, value uint64) *noc.Packet {
	var pool *coherence.Pool[coherence.RespInfo]
	return &pool.New(p, coherence.RespInfo{Value: value}).Packet
}

func (r *mcRig) ordered(kind coherence.Kind, src int, addr, reqID uint64) {
	p := &noc.Packet{VNet: noc.GOReq, Src: src, SID: src, Broadcast: true, Flits: 1,
		Kind: int(kind), Addr: addr, ReqID: reqID}
	r.mc.ProcessOrdered(p, r.cycle, r.cycle)
}

func TestMemoryServesUnownedLine(t *testing.T) {
	r := newMCRig()
	r.ordered(coherence.GetS, 5, 0x100, 42)
	r.step(99)
	if len(r.port.resps) != 0 {
		t.Fatal("response before DRAM latency elapsed")
	}
	r.step(5)
	if len(r.port.resps) != 1 {
		t.Fatalf("responses = %d, want 1", len(r.port.resps))
	}
	resp := r.port.resps[0]
	if coherence.Kind(resp.Kind) != coherence.DataMem || resp.Dst != 5 || resp.ReqID != 42 {
		t.Fatalf("bad response %v", resp)
	}
}

func TestCacheOwnedLineNotServedByMemory(t *testing.T) {
	r := newMCRig()
	r.ordered(coherence.GetX, 3, 0x200, 1) // node 3 becomes owner
	r.step(120)
	if len(r.port.resps) != 1 {
		t.Fatal("the first GetX is memory-served")
	}
	if r.mc.OwnerOf(0x200) != 3 {
		t.Fatalf("owner = %d, want 3", r.mc.OwnerOf(0x200))
	}
	// A read while a cache owns the line: memory stays silent.
	n := len(r.port.resps)
	r.ordered(coherence.GetS, 7, 0x200, 2)
	r.step(150)
	if len(r.port.resps) != n {
		t.Fatal("memory must not respond while a cache owns the line")
	}
}

func TestForeignAddressesIgnored(t *testing.T) {
	port := &fakePort{}
	id := uint64(0)
	mc := New(0, DefaultConfig(), port, func() uint64 { id++; return id }, fakeMap{mc: 9}, nil)
	p := &noc.Packet{VNet: noc.GOReq, Src: 1, Kind: int(coherence.GetS), Addr: 5, ReqID: 1, Flits: 1, Broadcast: true}
	mc.ProcessOrdered(p, 0, 0)
	for c := uint64(0); c < 150; c++ {
		mc.Evaluate(c)
	}
	if len(port.resps) != 0 {
		t.Fatal("a port must ignore addresses homed elsewhere")
	}
}

func TestWritebackRoundTrip(t *testing.T) {
	r := newMCRig()
	r.ordered(coherence.GetX, 4, 0x300, 1)
	r.step(120)
	// Owner evicts: PutM ordered, then data arrives unordered.
	r.ordered(coherence.PutM, 4, 0x300, 9)
	if r.mc.OwnerOf(0x300) != -1 {
		t.Fatal("PutM from the owner must return ownership to memory")
	}
	// A read racing the writeback is held.
	r.ordered(coherence.GetS, 6, 0x300, 10)
	r.step(200)
	if got := r.mc.Stats.RacedRequests; got != 1 {
		t.Fatalf("raced requests = %d, want 1", got)
	}
	before := len(r.port.resps)
	r.mc.AcceptResponse(wbData(noc.Packet{VNet: noc.UOResp, Src: 4, Kind: int(coherence.WBData), Addr: 0x300, ReqID: 9, Flits: 3},
		0x5a), r.cycle)
	r.step(250)
	// WBAck to the evictor plus DataMem, carrying the written-back data, to
	// the raced reader.
	var ack, data int
	for _, p := range r.port.resps[before:] {
		switch coherence.Kind(p.Kind) {
		case coherence.WBAck:
			ack++
		case coherence.DataMem:
			data++
			if v := coherence.InfoOf[coherence.RespInfo](p).Value; v != 0x5a {
				t.Fatalf("raced reader got value %#x, want the written-back 0x5a", v)
			}
		}
	}
	if ack != 1 || data != 1 {
		t.Fatalf("ack=%d data=%d, want 1/1", ack, data)
	}
}

// TestWritebackDataBeforePutM delivers a writeback's data before the
// controller processes its PutM in the global order: the PutM must leave
// memory's copy valid, so a later writer is served from DRAM rather than
// held for data that already came.
func TestWritebackDataBeforePutM(t *testing.T) {
	r := newMCRig()
	r.ordered(coherence.GetX, 4, 0x500, 1) // node 4 becomes the owner
	r.step(120)
	r.mc.AcceptResponse(wbData(noc.Packet{VNet: noc.UOResp, Src: 4, Kind: int(coherence.WBData), Addr: 0x500, ReqID: 9, Flits: 3},
		0x77), r.cycle)
	r.step(3)
	r.ordered(coherence.PutM, 4, 0x500, 9)
	if r.mc.OwnerOf(0x500) != -1 {
		t.Fatal("PutM from the owner must return ownership to memory")
	}
	r.ordered(coherence.GetX, 6, 0x500, 10)
	before := len(r.port.resps)
	cfg := DefaultConfig()
	r.step(cfg.DirAccessLatency + cfg.DRAMLatency + 1)
	for _, p := range r.port.resps[before:] {
		if coherence.Kind(p.Kind) == coherence.DataMem && p.Dst == 6 {
			if v := coherence.InfoOf[coherence.RespInfo](p).Value; v != 0x77 {
				t.Fatalf("writer got value %#x, want the written-back 0x77", v)
			}
			return
		}
	}
	t.Fatalf("node 6's GetX not served within %d cycles (%d requests held)",
		cfg.DirAccessLatency+cfg.DRAMLatency+1, r.mc.Stats.RacedRequests)
}

func TestStalePutMIgnored(t *testing.T) {
	r := newMCRig()
	r.ordered(coherence.GetX, 4, 0x400, 1)
	r.ordered(coherence.GetX, 5, 0x400, 2) // ownership moves 4 -> 5
	r.step(120)
	r.ordered(coherence.PutM, 4, 0x400, 3) // stale
	if r.mc.Stats.StalePutM != 1 {
		t.Fatalf("stale PutM not detected")
	}
	if r.mc.OwnerOf(0x400) != 5 {
		t.Fatal("stale PutM must not change ownership")
	}
}

func TestDirCacheMissPenaltyOnlyOnRefetch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalDirCacheBytes = 64 // tiny: 8 entries per 1 port
	cfg.Ports = 1
	port := &fakePort{}
	id := uint64(0)
	mc := New(0, cfg, port, func() uint64 { id++; return id }, fakeMap{mc: 0}, nil)
	cycle := uint64(0)
	serve := func(addr uint64) {
		p := &noc.Packet{VNet: noc.GOReq, Src: 1, SID: 1, Broadcast: true, Flits: 1,
			Kind: int(coherence.GetS), Addr: addr, ReqID: id + 500}
		mc.ProcessOrdered(p, cycle, cycle)
	}
	// First touches across a large footprint: no penalties.
	for a := uint64(0); a < 64; a++ {
		serve(a)
	}
	if mc.Stats.DirCacheMisses != 0 {
		t.Fatalf("first touches must not pay the miss penalty, got %d", mc.Stats.DirCacheMisses)
	}
	// Revisit an early line whose entry was evicted: penalty.
	serve(0)
	if mc.Stats.DirCacheMisses != 1 {
		t.Fatalf("refetch must count as a directory cache miss, got %d", mc.Stats.DirCacheMisses)
	}
}
