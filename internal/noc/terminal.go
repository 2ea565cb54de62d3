package noc

import (
	"fmt"

	"scorpio/internal/obs"
	"scorpio/internal/sim"
	"scorpio/internal/slab"
)

// Terminal is a component's attachment to one mesh node: the injection
// link's credit, VC and SID state, the serializer that sends one flit per
// cycle onto that link, and the UO-RESP assembly registers behind the
// ejection link. The mesh builds one per node (Mesh.Terminal); the NIC, the
// baseline endpoint and the traffic harness's node each drive the one of
// every mesh they attach to and keep only their queue policy.
//
// Terminals sit side by side in the mesh's slab and are driven by different
// shards. The stride is three cache lines, and the last word, node, is
// written only at build: where the allocator starts a slab 8 bytes past a
// line boundary, the word that spills onto the next terminal's first line
// is never written while the machine runs.
type Terminal struct {
	trk    trackerTable // one row: the router's Local input port
	inj    *Link
	ej     *Link
	cur    *Packet // packet being serialized, nil between packets
	tracer *obs.Tracer
	asm    []int // per UO-RESP VC: flits of the current packet received
	seq    int   // next flit of cur
	vc     int   // downstream VC cur holds
	node   int
}

// init attaches t to node's injection and ejection links, its tables cut
// from the mesh's slabs.
func (t *Terminal) init(m *Mesh, node int, trk *trackerSlabs, asm *slab.Slab[int]) {
	t.trk = newTrackerTable(m.cfg, 1, trk)
	t.inj, t.ej = m.InjectLink(node), m.EjectLink(node)
	t.asm = asm.Cut(m.cfg.UORespVCs)
	t.node = node
}

// SetTracer attaches a lifecycle event tracer (nil disables tracing).
func (t *Terminal) SetTracer(tr *obs.Tracer) { t.tracer = tr }

// Bind wires the owner's scheduling unit as the wake target of both links:
// injection-link credits and ejection-link flits wake it.
func (t *Terminal) Bind(a *sim.Activity) {
	t.inj.SetCreditWake(a)
	t.ej.SetFlitWake(a)
}

// Quiet reports whether neither link holds a value written during cycle now
// for the owner to read next cycle. Link wakes are edge-triggered and are
// dropped while the owner is active, so the owner may park only when quiet.
func (t *Terminal) Quiet(now uint64) bool {
	return !t.ej.FlitPendingAt(now) && !t.inj.CreditsPendingAt(now)
}

// TakeCredits applies the credits the router returned this cycle. Owners
// call it every cycle they run, before Start or Continue.
func (t *Terminal) TakeCredits(cycle uint64) {
	for _, c := range t.inj.Credits(cycle) {
		t.trk.processCredit(Local, c)
	}
}

// Busy reports whether a packet is part-way through serialization; Continue
// must then send its remaining flits before the next Start.
func (t *Terminal) Busy() bool { return t.cur != nil }

// Start claims a downstream VC for p, stamps NetworkEntry and sends the head
// flit. It reports false, sending nothing, when no VC is free or a request
// with p's SID is still in flight to the router.
//
// The reserved GO-REQ VC is never offered here: every GO-REQ packet a
// terminal injects is single-flit and carries its own node's SID, so the SID
// tracker admits one at a time, and when it does no GO-REQ VC is busy and
// each has its credits back.
func (t *Terminal) Start(p *Packet, cycle uint64) bool {
	vc, reserved, ok := t.trk.allocHeadVC(Local, p.VNet, p.SID)
	if !ok {
		return false
	}
	if reserved {
		panic(fmt.Sprintf("noc: node %d offered the reserved VC at its injection port for %s", t.node, p))
	}
	t.trk.claimHeadVC(Local, p.VNet, vc, p.SID)
	t.vc = vc
	p.NetworkEntry = cycle
	if t.tracer != nil {
		t.tracer.Record(obs.Event{
			Cycle: cycle, Type: obs.EvInject, Node: int32(t.node),
			Src: int32(p.Src), Pkt: p.ID, Arg: uint64(p.Flits),
			Port: -1, VNet: int8(p.VNet), VC: int16(vc),
		})
	}
	t.inj.Send(NewFlit(p, 0, vc), cycle)
	if p.Flits > 1 {
		t.cur, t.seq = p, 1
	}
	return true
}

// Continue sends the in-flight packet's next flit when its VC has credit,
// and returns the packet once its tail is out (nil before that).
func (t *Terminal) Continue(cycle uint64) *Packet {
	p := t.cur
	if !t.trk.canSendBody(Local, p.VNet, t.vc) {
		return nil
	}
	t.trk.chargeBody(Local, p.VNet, t.vc)
	t.inj.Send(NewFlit(p, t.seq, t.vc), cycle)
	t.seq++
	if t.seq < p.Flits {
		return nil
	}
	t.cur = nil
	return p
}

// Arrived records f's packet reaching this node (the net-arrive event).
func (t *Terminal) Arrived(f *Flit, cycle uint64) {
	if t.tracer != nil {
		t.tracer.Record(obs.Event{
			Cycle: cycle, Type: obs.EvNetArrive, Node: int32(t.node),
			Src: int32(f.Pkt.Src), Pkt: f.Pkt.ID,
			Port: -1, VNet: int8(f.Pkt.VNet), VC: int16(f.InVC()),
		})
	}
}

// Assemble consumes one UO-RESP flit: it returns the flit's credit to the
// router, freeing the VC with the tail, and counts the flit toward its
// packet. At the tail it checks that every flit arrived, stamps ArriveCycle,
// records the arrival and returns the packet; before the tail it returns nil.
func (t *Terminal) Assemble(f *Flit, cycle uint64) *Packet {
	vc := f.InVC()
	t.ej.SendCredit(Credit{VNet: UOResp, VC: vc, FreeVC: f.IsTail()}, cycle)
	t.asm[vc]++
	if !f.IsTail() {
		return nil
	}
	p := f.Pkt
	if t.asm[vc] != p.Flits {
		panic(fmt.Sprintf("noc: node %d UO-RESP packet %s assembled %d/%d flits", t.node, p, t.asm[vc], p.Flits))
	}
	t.asm[vc] = 0
	p.ArriveCycle = cycle
	t.Arrived(f, cycle)
	return p
}
