package nic

import (
	"testing"

	"scorpio/internal/noc"
)

// recorder is a Recycler that lists what it was handed.
type recorder struct{ got []*noc.Packet }

func (r *recorder) Recycle(p *noc.Packet) { r.got = append(r.got, p) }

// gateAgent refuses its first refuse offers, then accepts, and checks that
// no offered packet was recycled while it was on offer.
type gateAgent struct {
	t        *testing.T
	rec      *recorder
	refuse   int
	offers   int
	accepted []*noc.Packet
}

func (a *gateAgent) offer(p *noc.Packet) bool {
	if len(a.rec.got) != 0 {
		a.t.Fatalf("packet %s recycled before the agent accepted it", p)
	}
	if a.offers++; a.offers <= a.refuse {
		return false
	}
	a.accepted = append(a.accepted, p)
	return true
}

func (a *gateAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool { return a.offer(p) }

func (a *gateAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool { return a.offer(p) }

// gate puts a gateAgent and a recorder on one harness node.
func (h *harness) gate(t *testing.T, node, refuse int) *gateAgent {
	a := &gateAgent{t: t, rec: &recorder{}, refuse: refuse}
	h.nics[node].SetAgent(a)
	h.nics[node].SetRecycler(a.rec)
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
	a := h.gate(t, 0, 3)
	resp := &noc.Packet{ID: h.mesh.NextPacketID(), VNet: noc.UOResp, Src: 3, Dst: 0, Flits: 3}
	if !h.nics[3].SendResponse(resp) {
		t.Fatal("SendResponse rejected with empty queue")
	}
	h.deliver(t, a, 1)
	if a.offers != 4 {
		t.Fatalf("response offered %d times, want 3 refusals and an accept", a.offers)
	}
	if len(a.rec.got) != 1 || a.rec.got[0] != resp {
		t.Fatalf("recycled %v, want the accepted response once", a.rec.got)
	}
}

// TestNICRecyclesUnorderedUnicastRequest checks the directory baselines'
// unicast requests go back to the pool after AcceptOrderedRequest.
func TestNICRecyclesUnorderedUnicastRequest(t *testing.T) {
	h := newHarness(t, 2, 2, UnorderedConfig(), 1)
	a := h.gate(t, 1, 2)
	req := &noc.Packet{ID: h.mesh.NextPacketID(), VNet: noc.GOReq, Src: 2, SID: 2, Dst: 1, Flits: 1}
	if !h.nics[2].SendRequest(req) {
		t.Fatal("SendRequest rejected with empty queue")
	}
	h.deliver(t, a, 1)
	if len(a.rec.got) != 1 || a.rec.got[0] != req {
		t.Fatalf("recycled %v, want the accepted request once", a.rec.got)
	}
}

// TestNICNeverRecyclesBroadcast checks that a broadcast, which every node
// shares, stays with the garbage collector in both NIC modes.
func TestNICNeverRecyclesBroadcast(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"ordered", DefaultConfig()}, {"unordered", UnorderedConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 2, 2, tc.cfg, 1)
			var gates []*gateAgent
			for node := range h.nics {
				if node != 1 {
					gates = append(gates, h.gate(t, node, 0))
				}
			}
			h.nics[1].SetRecycler(gates[0].rec)
			h.agents[1].toSend = 1
			for _, a := range gates {
				h.deliver(t, a, 1)
			}
			h.k.Run(50)
			for _, a := range gates {
				if len(a.rec.got) != 0 {
					t.Fatalf("broadcast recycled: %v", a.rec.got)
				}
			}
		})
	}
}
