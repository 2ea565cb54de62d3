package noc

import (
	"testing"
	"unsafe"

	"scorpio/internal/sim"
)

// TestFlitIsTwoPerCacheLine pins the flit value size the by-value link
// mailboxes and router VC rings are designed around, the Link padding, and
// the ESID board entry size the routers' row scans read.
func TestFlitIsTwoPerCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(Flit{}); s != 32 {
		t.Fatalf("Flit is %d bytes, want 32 (two per 64-byte cache line)", s)
	}
	if s := unsafe.Sizeof(Link{}); s%64 != 0 {
		t.Fatalf("Link is %d bytes, want a multiple of the 64-byte cache line", s)
	}
	if s := unsafe.Sizeof(esidEntry{}); s != 16 {
		t.Fatalf("esidEntry is %d bytes, want 16 (four ESID board entries per 64-byte cache line)", s)
	}
}

// TestDrainedRouterSlotsAreZero loads a 6×6 mesh with broadcasts and
// multi-flit unicasts, drains it, and checks that every VC slot of every
// router reads Flit{}: popping a flit zeroes its slot, so no router keeps a
// packet alive after the packet's last flit has left.
func TestDrainedRouterSlotsAreZero(t *testing.T) {
	cfg := DefaultConfig()
	k, m, eps := testNet(t, cfg)
	rng := sim.NewRNG(5)
	want := 0
	for src := 0; src < cfg.Nodes(); src++ {
		eps[src].Queue(&Packet{ID: m.NextPacketID(), VNet: GOReq, Src: src, SID: src, Broadcast: true, Flits: 1})
		want += cfg.Nodes() - 1
		for j := 0; j < 4; j++ {
			if dst := rng.Intn(cfg.Nodes()); dst != src {
				eps[src].Queue(&Packet{ID: m.NextPacketID(), VNet: UOResp, Src: src, Dst: dst, Flits: cfg.DataPacketFlits()})
				want++
			}
		}
	}
	drain(t, k, func() bool {
		got := 0
		for _, e := range eps {
			got += len(e.Received)
		}
		return got == want
	}, 20000)
	k.Run(50)
	if n := m.BufferedFlits(); n != 0 {
		t.Fatalf("%d flits still buffered after drain", n)
	}
	for node := 0; node < cfg.Nodes(); node++ {
		for i, f := range m.Router(node).qbuf {
			if f != (Flit{}) {
				t.Fatalf("router %d VC slot %d holds %+v after drain, want Flit{}", node, i, f)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptIntoFullVCPanics pins the credit-protocol violation detector: a
// flit that arrives at an input VC whose ring is full panics rather than
// overwriting a buffered flit.
func TestAcceptIntoFullVCPanics(t *testing.T) {
	cfg := DefaultConfig()
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Router(cfg.NodeAt(1, 1))
	for v := VNet(0); v < NumVNets; v++ {
		f := NewFlit(&Packet{ID: uint64(v) + 1, VNet: v, Src: 0, Dst: 0, Flits: 1}, 0, 1)
		for i := 0; i < cfg.BufDepthFor(v); i++ {
			r.acceptFlit(East, &f)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepting flit %d into a VC of depth %d did not panic", v, cfg.BufDepthFor(v)+1, cfg.BufDepthFor(v))
				}
			}()
			r.acceptFlit(East, &f)
		}()
	}
}

// TestSAOGrantsByPriorityClass holds SA-O to the class each candidate
// carries from SA-I (Section 3.2: lookaheads beat buffered flits, and a flit
// in the reserved VC beats both). A buffered flit from West and a rival from
// Local both want East, and East's round-robin pointer favours West, yet the
// rival takes East.
func TestSAOGrantsByPriorityClass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	at := cfg.NodeAt(1, 1)
	for _, rvc := range []bool{true, false} {
		name, vc := "lookahead", 0
		if rvc {
			name, vc = "reserved VC", cfg.ReservedVC(GOReq)
		}
		t.Run(name, func(t *testing.T) {
			m, err := NewMesh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := m.Router(at)
			r.now = 10
			buffered := NewFlit(&Packet{ID: 1, VNet: UOResp, Src: cfg.NodeAt(0, 1), Dst: cfg.NodeAt(3, 1), Flits: 1}, 0, 0)
			r.acceptFlit(West, &buffered)
			r.qFront(r.flatVC(West, UOResp, 0)).bypassCandidate = false
			rival := NewFlit(&Packet{ID: 2, VNet: GOReq, Src: at, SID: at, Broadcast: true, Flits: 1}, 0, vc)
			r.acceptFlit(Local, &rival)
			r.qFront(r.flatVC(Local, GOReq, vc)).bypassCandidate = !rvc
			r.now += uint64(cfg.RouterStages)
			r.saPtr[East] = int(West)
			r.allocate()
			if f := r.outLink[East].Flit(r.now + 1); f == nil || f.Pkt.ID != 2 {
				t.Fatalf("East carried %v, want the %s flit (packet 2)", f, name)
			}
		})
	}
}
