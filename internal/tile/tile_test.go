package tile

import (
	"testing"

	"scorpio/internal/coherence"
	"scorpio/internal/noc"
)

// fakePort sinks L2 traffic for tile-level tests.
type fakePort struct{ reqs []*noc.Packet }

func (f *fakePort) SendRequest(p *noc.Packet) bool {
	f.reqs = append(f.reqs, p)
	return true
}
func (f *fakePort) SendResponse(p *noc.Packet) bool { return true }

type fakeMap struct{}

func (fakeMap) HomeMC(addr uint64) int { return 0 }

type tileRig struct {
	tile  *Tile
	l2    *coherence.L2Controller
	port  *fakePort
	cycle uint64
	done  []Completion
}

// idCounter issues sequential packet IDs.
type idCounter uint64

func (c *idCounter) NextPacketID() uint64 { *c++; return uint64(*c) }

func newTileRig(t *testing.T) *tileRig {
	t.Helper()
	port := &fakePort{}
	var ids idCounter
	l2 := coherence.NewL2(1, coherence.DefaultConfig(), port, &ids, fakeMap{}, nil)
	tl := New(1, DefaultConfig(), l2)
	r := &tileRig{tile: tl, l2: l2, port: port}
	tl.OnComplete = func(c Completion) { r.done = append(r.done, c) }
	return r
}

func (r *tileRig) step(n int) {
	for i := 0; i < n; i++ {
		r.tile.Evaluate(r.cycle)
		r.tile.Commit(r.cycle)
		r.l2.Evaluate(r.cycle)
		r.l2.Commit(r.cycle)
		r.cycle++
	}
}

// completeL2 plays the network side of the last miss: own ordered + data.
func (r *tileRig) completeL2(t *testing.T) {
	t.Helper()
	if len(r.port.reqs) == 0 {
		t.Fatal("no L2 request to complete")
	}
	req := r.port.reqs[len(r.port.reqs)-1]
	if !r.l2.ProcessOrdered(req, r.cycle, r.cycle) {
		t.Fatal("own ordered request rejected")
	}
	var pool *coherence.Pool[coherence.RespInfo]
	r.l2.AcceptResponse(&pool.New(noc.Packet{
		VNet: noc.UOResp, Kind: int(coherence.DataMem), ReqID: req.ReqID, Flits: 3,
	}, coherence.RespInfo{Value: 7}).Packet, r.cycle)
	r.step(2)
}

func TestColdReadMissesBothLevelsThenHits(t *testing.T) {
	r := newTileRig(t)
	if !r.tile.Access(Data, 0x40, false, 0, r.cycle) {
		t.Fatal("access rejected")
	}
	if !r.tile.Busy(Data) {
		t.Fatal("data port must be busy during the miss")
	}
	r.step(2)
	r.completeL2(t)
	if len(r.done) != 1 || r.done[0].L1Hit || r.done[0].Value != 7 {
		t.Fatalf("miss completion wrong: %+v", r.done)
	}
	if !r.tile.L1D().Present(0x40) {
		t.Fatal("read miss must fill the L1")
	}
	// Second read: pure L1 hit, no new L2 request.
	before := len(r.port.reqs)
	r.done = nil
	if !r.tile.Access(Data, 0x40, false, 0, r.cycle) {
		t.Fatal("hit access rejected")
	}
	r.step(4)
	if len(r.port.reqs) != before {
		t.Fatal("L1 hit must not touch the L2 network")
	}
	if len(r.done) != 1 || !r.done[0].L1Hit || r.done[0].Value != 7 {
		t.Fatalf("hit completion wrong: %+v", r.done)
	}
}

func TestAHBSingleTransactionPerPort(t *testing.T) {
	r := newTileRig(t)
	if !r.tile.Access(Data, 0x40, false, 0, r.cycle) {
		t.Fatal("first access rejected")
	}
	if r.tile.Access(Data, 0x80, false, 0, r.cycle) {
		t.Fatal("second data-port access must wait (AHB single transaction)")
	}
	// The instruction port is independent.
	if !r.tile.Access(Instr, 0xc0, false, 0, r.cycle) {
		t.Fatal("instruction port must be free")
	}
	if !r.tile.Busy(Instr) || !r.tile.Busy(Data) {
		t.Fatal("both ports should be busy now")
	}
}

func TestWriteThroughUpdatesL2(t *testing.T) {
	r := newTileRig(t)
	// Seed an L1+L2 copy.
	r.tile.Access(Data, 0x40, false, 0, r.cycle)
	r.step(2)
	r.completeL2(t)
	r.done = nil
	// Store: write-through makes an L2 transaction (upgrade to M).
	if !r.tile.Access(Data, 0x40, true, 99, r.cycle) {
		t.Fatal("store rejected")
	}
	r.step(2)
	r.completeL2(t)
	if len(r.done) != 1 || !r.done[0].Write {
		t.Fatalf("store completion missing: %+v", r.done)
	}
	if got := r.l2.ValueOf(0x40); got != 99 {
		t.Fatalf("L2 value = %d, want 99 (write-through)", got)
	}
	if !r.tile.L1D().Present(0x40) {
		t.Fatal("write-through keeps the L1 copy")
	}
	if r.tile.Stats.WriteThroughs != 1 {
		t.Fatal("write-through not counted")
	}
}

func TestExternalInvalidationReachesL1(t *testing.T) {
	r := newTileRig(t)
	r.tile.Access(Data, 0x40, false, 0, r.cycle)
	r.step(2)
	r.completeL2(t)
	if !r.tile.L1D().Present(0x40) {
		t.Fatal("setup failed")
	}
	// A remote GetX snoop invalidates the L2 line; inclusion must drop the
	// L1 copy through the invalidation port.
	r.l2.ProcessOrdered(&noc.Packet{
		VNet: noc.GOReq, Src: 5, SID: 5, Broadcast: true, Flits: 1,
		Kind: int(coherence.GetX), Addr: 0x40, ReqID: 77,
	}, r.cycle, r.cycle)
	if r.tile.L1D().Present(0x40) {
		t.Fatal("L1 copy survived an external invalidation")
	}
	if r.tile.Stats.Invalidations != 1 {
		t.Fatal("invalidation port not counted")
	}
}

func TestInstructionPortRejectsWrites(t *testing.T) {
	r := newTileRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("write on the instruction port must panic")
		}
	}()
	r.tile.Access(Instr, 0x40, true, 1, r.cycle)
}
