package nic

import (
	"testing"

	"scorpio/internal/noc"
)

// recorder stands in for the machine's pool: one Recycler behind every NIC
// that lists what it was handed and which node handed it back, beside the
// nodes whose agents accepted a packet, in order.
type recorder struct {
	got     []*noc.Packet
	from    []int
	accepts []int
}

// nodeRecycler is node's NIC's handle on a shared recorder.
type nodeRecycler struct {
	rec  *recorder
	node int
}

func (r nodeRecycler) Recycle(p *noc.Packet) {
	r.rec.got = append(r.rec.got, p)
	r.rec.from = append(r.rec.from, r.node)
}

// gateAgent refuses its first refuse offers, then accepts, and checks that
// no offered packet was recycled while it was on offer.
type gateAgent struct {
	t        *testing.T
	rec      *recorder
	node     int
	refuse   int
	offers   int
	accepted []*noc.Packet
}

func (a *gateAgent) offer(p *noc.Packet) bool {
	if len(a.rec.got) != 0 {
		a.t.Fatalf("packet %s recycled before node %d's agent accepted it", p, a.node)
	}
	if a.offers++; a.offers <= a.refuse {
		return false
	}
	a.accepted = append(a.accepted, p)
	a.rec.accepts = append(a.rec.accepts, a.node)
	return true
}

func (a *gateAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool { return a.offer(p) }

func (a *gateAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool { return a.offer(p) }

// gate puts a gateAgent on one harness node and hands the node's delivered
// packets to rec.
func (h *harness) gate(t *testing.T, rec *recorder, node, refuse int) *gateAgent {
	a := &gateAgent{t: t, rec: rec, node: node, refuse: refuse}
	h.nics[node].SetAgent(a)
	h.nics[node].SetRecycler(nodeRecycler{rec: rec, node: node})
	return a
}

// deliver runs the harness until a has accepted want packets.
func (h *harness) deliver(t *testing.T, a *gateAgent, want int) {
	t.Helper()
	if !h.k.RunUntil(func() bool { return len(a.accepted) == want }, 2000) {
		t.Fatalf("agent accepted %d/%d packets", len(a.accepted), want)
	}
}

// TestNICRecyclesAcceptedResponse checks a unicast response goes back to
// the pool once, only after the agent accepted it, and never while a
// refusal keeps it queued for retry.
func TestNICRecyclesAcceptedResponse(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultConfig(), 1)
	rec := &recorder{}
	a := h.gate(t, rec, 0, 3)
	resp := &noc.Packet{ID: h.mesh.NextPacketID(), VNet: noc.UOResp, Src: 3, Dst: 0, Flits: 3}
	if !h.nics[3].SendResponse(resp) {
		t.Fatal("SendResponse rejected with empty queue")
	}
	h.deliver(t, a, 1)
	if a.offers != 4 {
		t.Fatalf("response offered %d times, want 3 refusals and an accept", a.offers)
	}
	if len(rec.got) != 1 || rec.got[0] != resp {
		t.Fatalf("recycled %v, want the accepted response once", rec.got)
	}
}

// TestNICRecyclesUnorderedUnicastRequest checks the directory baselines'
// unicast requests go back to the pool after AcceptOrderedRequest.
func TestNICRecyclesUnorderedUnicastRequest(t *testing.T) {
	h := newHarness(t, 2, 2, UnorderedConfig(), 1)
	rec := &recorder{}
	a := h.gate(t, rec, 1, 2)
	req := &noc.Packet{ID: h.mesh.NextPacketID(), VNet: noc.GOReq, Src: 2, SID: 2, Dst: 1, Flits: 1}
	if !h.nics[2].SendRequest(req) {
		t.Fatal("SendRequest rejected with empty queue")
	}
	h.deliver(t, a, 1)
	if len(rec.got) != 1 || rec.got[0] != req {
		t.Fatalf("recycled %v, want the accepted request once", rec.got)
	}
}

// TestNICRecyclesBroadcastAtLastDelivery checks the broadcast rule in both
// NIC modes: the machine's pool receives a broadcast exactly once, from the
// node that delivered it last, and only after every delivering node's agent
// accepted it, though each agent refuses a few offers first. The ordered
// NIC delivers it at all four nodes, the source through its loopback; the
// unordered NIC at the three others.
func TestNICRecyclesBroadcastAtLastDelivery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		nodes []int
	}{{"ordered", DefaultConfig(), []int{0, 1, 2, 3}}, {"unordered", UnorderedConfig(), []int{0, 2, 3}}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 2, 2, tc.cfg, 1)
			rec := &recorder{}
			var gates []*gateAgent
			for node := range h.nics {
				gates = append(gates, h.gate(t, rec, node, 2*node))
			}
			p := &noc.Packet{ID: h.mesh.NextPacketID(), VNet: noc.GOReq, Src: 1, SID: 1, Broadcast: true, Flits: 1}
			if !h.nics[1].SendRequest(p) {
				t.Fatal("SendRequest rejected with empty queue")
			}
			if !h.k.RunUntil(func() bool { return len(rec.accepts) == len(tc.nodes) }, 2000) {
				t.Fatalf("broadcast accepted at %v, want nodes %v", rec.accepts, tc.nodes)
			}
			h.k.Run(50)
			for _, node := range tc.nodes {
				if a := gates[node]; len(a.accepted) != 1 || a.offers != a.refuse+1 {
					t.Fatalf("node %d accepted %d packets in %d offers, want 1 after %d refusals",
						node, len(a.accepted), a.offers, a.refuse)
				}
			}
			if len(rec.got) != 1 || rec.got[0] != p {
				t.Fatalf("recycled %v, want the broadcast once", rec.got)
			}
			if last := rec.accepts[len(rec.accepts)-1]; rec.from[0] != last {
				t.Fatalf("node %d recycled the broadcast, but node %d delivered it last (order %v)", rec.from[0], last, rec.accepts)
			}
		})
	}
}
