package directory

import (
	"testing"

	"scorpio/internal/coherence"
	"scorpio/internal/noc"
)

// fakeNIC satisfies the injection interface of Home and L2.
type fakeNIC struct {
	reqs  []*noc.Packet
	resps []*noc.Packet
}

func (f *fakeNIC) SendRequest(p *noc.Packet) bool {
	f.reqs = append(f.reqs, p)
	return true
}

func (f *fakeNIC) SendResponse(p *noc.Packet) bool {
	f.resps = append(f.resps, p)
	return true
}

// Note: Home/L2 take *nic.NIC in the system but are tested through their
// exported methods with a shim; the fields are interfaces in this package.

type homeRig struct {
	home  *Home
	nic   *fakeNIC
	cycle uint64
}

// idCounter issues sequential packet IDs.
type idCounter uint64

func (c *idCounter) NextPacketID() uint64 { *c++; return uint64(*c) }

func newHomeRig(v Variant) *homeRig {
	cfg := LPDConfig(16)
	if v == HT {
		cfg = HTConfig(16)
	}
	n := &fakeNIC{}
	h := NewHome(2, cfg, n, new(idCounter), nil)
	return &homeRig{home: h, nic: n}
}

// msg builds a message carrying info, as a sender's pool would.
func msg(p noc.Packet, info Info) *noc.Packet {
	var pool *coherence.Pool[Info]
	return &pool.New(p, info).Packet
}

func (r *homeRig) step(n int) {
	for i := 0; i < n; i++ {
		r.home.Evaluate(r.cycle)
		r.home.Commit(r.cycle)
		r.cycle++
	}
}

func (r *homeRig) request(kind Kind, src int, addr, reqID uint64) {
	p := &noc.Packet{VNet: noc.GOReq, Src: src, SID: src, Dst: 2, Flits: 1,
		Kind: int(kind), Addr: addr, ReqID: reqID, InjectCycle: r.cycle}
	r.home.Request(p, r.cycle, r.cycle)
}

func (r *homeRig) done(src int, addr, reqID uint64) {
	r.home.DoneArrived(&noc.Packet{Src: src, Addr: addr, ReqID: reqID}, r.cycle)
}

func (r *homeRig) find(kind Kind) *noc.Packet {
	for _, p := range r.nic.resps {
		if Kind(p.Kind) == kind {
			return p
		}
	}
	for _, p := range r.nic.reqs {
		if Kind(p.Kind) == kind {
			return p
		}
	}
	return nil
}

func TestHomeServesUncachedFromMemory(t *testing.T) {
	r := newHomeRig(LPD)
	r.request(ReqGetS, 5, 0x100, 1)
	r.step(250)
	data := r.find(DataD)
	if data == nil {
		t.Fatal("no DataD response")
	}
	if data.Dst != 5 || data.ReqID != 1 {
		t.Fatalf("bad data %v", data)
	}
	if coherence.InfoOf[Info](data).ServedByCache {
		t.Fatal("memory-served response mislabelled")
	}
}

func TestLPDForwardsToOwner(t *testing.T) {
	r := newHomeRig(LPD)
	r.request(ReqGetX, 3, 0x200, 1)
	r.step(250)
	r.done(3, 0x200, 1)
	// Now node 3 owns the line; a read forwards.
	r.request(ReqGetS, 7, 0x200, 2)
	r.step(50)
	fwd := r.find(FwdGetS)
	if fwd == nil {
		t.Fatal("no forward to the owner")
	}
	if fwd.Dst != 3 {
		t.Fatalf("forward to %d, want owner 3", fwd.Dst)
	}
	info := coherence.InfoOf[Info](fwd)
	if info.Requester != 7 || fwd.ReqID != 2 {
		t.Fatalf("bad forward info %+v", info)
	}
}

func TestLPDInvalidatesTrackedSharers(t *testing.T) {
	r := newHomeRig(LPD)
	// Three readers share the line.
	for i, src := range []int{4, 5, 6} {
		r.request(ReqGetS, src, 0x300, uint64(i+1))
		r.step(250)
		r.done(src, 0x300, uint64(i+1))
	}
	// A writer invalidates the sharers.
	r.request(ReqGetX, 9, 0x300, 10)
	r.step(250)
	invs := 0
	for _, p := range r.nic.resps {
		if Kind(p.Kind) == Inv {
			invs++
			if p.Dst == 9 {
				t.Fatal("requester must not be invalidated")
			}
		}
	}
	if invs != 3 {
		t.Fatalf("invalidations = %d, want 3", invs)
	}
	var data *noc.Packet
	for _, p := range r.nic.resps {
		if Kind(p.Kind) == DataD && p.ReqID == 10 {
			data = p
		}
	}
	if data == nil {
		t.Fatal("writer needs data")
	}
	if got := coherence.InfoOf[Info](data).AckCount; got != 3 {
		t.Fatalf("ack count = %d, want 3", got)
	}
}

func TestLPDOverflowFallsBackToBroadcast(t *testing.T) {
	r := newHomeRig(LPD)
	// Six readers exceed the 4 pointers.
	for i, src := range []int{1, 3, 4, 5, 6, 7} {
		r.request(ReqGetS, src, 0x400, uint64(i+1))
		r.step(250)
		r.done(src, 0x400, uint64(i+1))
	}
	r.request(ReqGetX, 9, 0x400, 10)
	r.step(250)
	if r.find(ProbeX) == nil {
		t.Fatal("overflowed GetX must broadcast")
	}
	if r.home.Stats.ProbeBcasts != 1 {
		t.Fatalf("probe broadcasts = %d, want 1", r.home.Stats.ProbeBcasts)
	}
}

func TestHTAlwaysProbesOnOwnedLines(t *testing.T) {
	r := newHomeRig(HT)
	probed := 0
	r.home.LocalProbe = func(p *noc.Packet, cycle uint64) bool { probed++; return true }
	r.request(ReqGetX, 3, 0x500, 1)
	r.step(250)
	r.done(3, 0x500, 1)
	r.request(ReqGetS, 7, 0x500, 2)
	r.step(50)
	if r.find(ProbeS) == nil {
		t.Fatal("HT read with a cache owner must broadcast a probe")
	}
	if r.find(FwdGetS) != nil {
		t.Fatal("HT never forwards point-to-point")
	}
	if probed != 2 {
		t.Fatalf("local L2 probed %d times, want 2 (GetX + GetS)", probed)
	}
}

func TestHomeQueuesRacingTransactions(t *testing.T) {
	r := newHomeRig(LPD)
	r.request(ReqGetS, 4, 0x600, 1)
	r.request(ReqGetS, 5, 0x600, 2) // queued behind the first
	r.step(250)
	if r.home.Stats.Queued != 1 {
		t.Fatalf("queued = %d, want 1", r.home.Stats.Queued)
	}
	first := r.find(DataD)
	if first == nil || first.Dst != 4 {
		t.Fatal("first transaction must complete first")
	}
	// The second only dispatches after Done.
	count := len(r.nic.resps)
	r.step(300)
	if len(r.nic.resps) != count {
		t.Fatal("queued transaction ran before the line was unblocked")
	}
	r.done(4, 0x600, 1)
	r.step(250)
	found := false
	for _, p := range r.nic.resps {
		if Kind(p.Kind) == DataD && p.Dst == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("queued transaction never served")
	}
}

func TestHomeWritebackFlow(t *testing.T) {
	r := newHomeRig(LPD)
	r.request(ReqGetX, 3, 0x700, 1)
	r.step(250)
	r.done(3, 0x700, 1)
	// Eviction: PutM then data.
	r.request(ReqPutM, 3, 0x700, 2)
	r.step(50)
	// Read racing the writeback parks until data arrives.
	r.request(ReqGetS, 8, 0x700, 3)
	r.step(250)
	for _, p := range r.nic.resps {
		if Kind(p.Kind) == DataD && p.Dst == 8 {
			t.Fatal("read served before writeback data arrived")
		}
	}
	r.home.WBDataArrived(&noc.Packet{Src: 3, Addr: 0x700, ReqID: 2, Flits: 3}, r.cycle)
	r.step(400)
	if r.find(WBAck) == nil {
		t.Fatal("writeback not acknowledged")
	}
	served := false
	for _, p := range r.nic.resps {
		if Kind(p.Kind) == DataD && p.Dst == 8 {
			served = true
		}
	}
	if !served {
		t.Fatal("parked read never served")
	}
}

func TestHomeStalePutM(t *testing.T) {
	r := newHomeRig(LPD)
	r.request(ReqGetX, 3, 0x800, 1)
	r.step(250)
	r.done(3, 0x800, 1)
	r.request(ReqGetX, 4, 0x800, 2) // ownership moves to 4 (fwd to 3)
	r.step(250)
	r.done(4, 0x800, 2)
	r.request(ReqPutM, 3, 0x800, 3) // stale
	r.step(250)
	if r.home.Stats.StalePutM != 1 {
		t.Fatalf("stale PutM = %d, want 1", r.home.Stats.StalePutM)
	}
}

// l2Rig exercises the requester-side controller.
type l2Rig struct {
	l2    *L2
	nic   *fakeNIC
	cycle uint64
	done  []coherence.Completion
}

func newL2Rig(v Variant) *l2Rig {
	n := &fakeNIC{}
	l2 := NewL2(5, DefaultL2Config(16, v), n, new(idCounter), nil)
	r := &l2Rig{l2: l2, nic: n}
	l2.OnComplete = func(c coherence.Completion) { r.done = append(r.done, c) }
	return r
}

func (r *l2Rig) step(n int) {
	for i := 0; i < n; i++ {
		r.l2.Evaluate(r.cycle)
		r.l2.Commit(r.cycle)
		r.cycle++
	}
}

func TestL2MissSendsRequestToHome(t *testing.T) {
	r := newL2Rig(LPD)
	r.l2.CoreRequest(0x21, false, r.cycle) // home = 0x21 % 16 = 1
	r.step(2)
	if len(r.nic.reqs) != 1 {
		t.Fatal("no request sent")
	}
	req := r.nic.reqs[0]
	if Kind(req.Kind) != ReqGetS || req.Dst != 1 || req.Broadcast {
		t.Fatalf("bad request %v", req)
	}
}

func TestL2DataInstallsAndSendsDone(t *testing.T) {
	r := newL2Rig(LPD)
	r.l2.CoreRequest(0x21, true, r.cycle)
	r.step(2)
	req := r.nic.reqs[0]
	r.l2.HandleResponse(msg(noc.Packet{Kind: int(DataD), Addr: 0x21, ReqID: req.ReqID, Flits: 3}, Info{ServedByCache: false, AckCount: 0}), r.cycle)
	r.step(3)
	if r.l2.LineState(0x21) != coherence.Modified {
		t.Fatal("write fill must install M")
	}
	var doneSeen bool
	for _, p := range r.nic.resps {
		if Kind(p.Kind) == Done && p.Dst == 1 {
			doneSeen = true
		}
	}
	if !doneSeen {
		t.Fatal("Done not sent to the home")
	}
	if len(r.done) != 1 || r.done[0].ServedByCache {
		t.Fatalf("completion wrong: %+v", r.done)
	}
}

func TestL2WaitsForInvAcks(t *testing.T) {
	r := newL2Rig(LPD)
	r.l2.CoreRequest(0x21, true, r.cycle)
	r.step(2)
	req := r.nic.reqs[0]
	r.l2.HandleResponse(msg(noc.Packet{Kind: int(DataD), Addr: 0x21, ReqID: req.ReqID, Flits: 3}, Info{ServedByCache: true, AckCount: 2, DataSent: 1, OwnerArrive: 1}), r.cycle)
	r.step(3)
	if len(r.done) != 0 {
		t.Fatal("completion before acks collected")
	}
	r.l2.HandleResponse(&noc.Packet{Kind: int(InvAck), Addr: 0x21, ReqID: req.ReqID, Flits: 1}, r.cycle)
	r.l2.HandleResponse(&noc.Packet{Kind: int(InvAck), Addr: 0x21, ReqID: req.ReqID, Flits: 1}, r.cycle)
	r.step(3)
	if len(r.done) != 1 {
		t.Fatal("completion missing after all acks")
	}
}

func TestL2FwdGetSMakesOwnerDirtyShared(t *testing.T) {
	r := newL2Rig(LPD)
	r.l2.Array().Insert(0x30, int32(coherence.Modified), 0)
	r.l2.HandleFwd(msg(noc.Packet{Kind: int(FwdGetS), Addr: 0x30, ReqID: 7}, Info{Requester: 9}), r.cycle)
	r.step(15)
	if r.l2.LineState(0x30) != coherence.OwnedDirty {
		t.Fatal("owner must downgrade to O_D on a read forward")
	}
	if len(r.nic.resps) != 1 || r.nic.resps[0].Dst != 9 {
		t.Fatal("owner must send data to the requester")
	}
}

func TestL2InvAcksRequester(t *testing.T) {
	r := newL2Rig(LPD)
	r.l2.Array().Insert(0x31, int32(coherence.Shared), 0)
	r.l2.HandleInv(msg(noc.Packet{Kind: int(Inv), Addr: 0x31, ReqID: 8}, Info{Requester: 12}), r.cycle)
	r.step(2)
	if r.l2.LineState(0x31) != coherence.Invalid {
		t.Fatal("sharer must invalidate")
	}
	if len(r.nic.resps) != 1 {
		t.Fatal("no ack sent")
	}
	ack := r.nic.resps[0]
	if Kind(ack.Kind) != InvAck || ack.Dst != 12 || ack.ReqID != 8 {
		t.Fatalf("bad ack %v", ack)
	}
}

func TestL2ProbeSemantics(t *testing.T) {
	r := newL2Rig(HT)
	r.l2.Array().Insert(0x40, int32(coherence.OwnedDirty), 0)
	// A write probe from another requester takes the line.
	r.l2.HandleProbe(msg(noc.Packet{Kind: int(ProbeX), Addr: 0x40, ReqID: 3}, Info{Requester: 2}), r.cycle)
	r.step(15)
	if r.l2.LineState(0x40) != coherence.Invalid {
		t.Fatal("ProbeX must take ownership")
	}
	if len(r.nic.resps) != 1 {
		t.Fatal("owner must respond with data")
	}
	// A probe for a line we do not have is silent (no acks in HT).
	n := len(r.nic.resps)
	r.l2.HandleProbe(msg(noc.Packet{Kind: int(ProbeX), Addr: 0x41, ReqID: 4}, Info{Requester: 2}), r.cycle)
	r.step(5)
	if len(r.nic.resps) != n {
		t.Fatal("non-owner must stay silent")
	}
}

// TestWritebackBufferSilentAfterPutM wires an HT home to an evicting L2: once
// the home has processed the L2's PutM and memory owns the line again, the
// probe of another node's GetX must not draw data from the L2's writeback
// buffer, or the requester receives a second DataD.
func TestWritebackBufferSilentAfterPutM(t *testing.T) {
	const line, other = 0x22, 0x23 // one-line L2: other evicts line
	h := newHomeRig(HT)            // HomeFor(line, 16) == 2, the rig's home
	cfg := DefaultL2Config(16, HT)
	cfg.CapacityBytes, cfg.Ways = 32, 1
	r := &l2Rig{nic: &fakeNIC{}}
	r.l2 = NewL2(5, cfg, r.nic, new(idCounter), nil)

	// Node 5 owns the line, at the home and in its array.
	h.request(ReqGetX, 5, line, 100)
	h.step(250)
	h.done(5, line, 100)
	r.l2.Array().Insert(line, int32(coherence.Modified), 0)

	// A read of the other line evicts it dirty.
	r.l2.CoreRequest(other, false, r.cycle)
	r.step(2)
	r.l2.HandleResponse(msg(noc.Packet{Kind: int(DataD), Addr: other, ReqID: r.nic.reqs[0].ReqID, Flits: 3}, Info{}), r.cycle)
	var putm, data *noc.Packet
	for _, p := range r.nic.reqs {
		if Kind(p.Kind) == ReqPutM {
			putm = p
		}
	}
	for _, p := range r.nic.resps {
		if Kind(p.Kind) == WBData {
			data = p
		}
	}
	if putm == nil || data == nil {
		t.Fatal("the dirty eviction sent no PutM and data")
	}

	// The home processes the writeback, then node 9's GetX. The WBAck stays
	// in flight, so node 5's buffer still holds the line.
	h.home.Request(putm, h.cycle, h.cycle)
	h.step(20)
	h.home.WBDataArrived(data, h.cycle)
	h.request(ReqGetX, 9, line, 200)
	h.step(20)
	var probe *noc.Packet
	for _, p := range h.nic.reqs {
		if Kind(p.Kind) == ProbeX && p.ReqID == 200 {
			probe = p
		}
	}
	if probe == nil {
		t.Fatal("the home sent no probe for node 9's GetX")
	}
	n := len(r.nic.resps)
	r.l2.HandleProbe(probe, r.cycle)
	r.step(cfg.HitLatency + 5)
	for _, p := range r.nic.resps[n:] {
		if Kind(p.Kind) == DataD {
			t.Fatalf("node 5 answered node 9's probe from its writeback buffer: %v", p)
		}
	}
}

func TestVariantAndKindStrings(t *testing.T) {
	if LPD.String() != "LPD-D" || HT.String() != "HT-D" {
		t.Fatal("variant names drifted from the paper")
	}
	for k := ReqGetS; k <= Done; k++ {
		if k.String() == "" {
			t.Fatal("unnamed kind")
		}
	}
	if HomeFor(37, 36) != 1 {
		t.Fatal("home interleaving broken")
	}
}
