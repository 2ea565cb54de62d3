package baseline

import (
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/sim"
)

// recorder stands in for the machine's pool: one Recycler behind every
// endpoint that lists what it was handed and which node handed it back,
// beside the nodes whose agents accepted a packet, in order.
type recorder struct {
	got     []*noc.Packet
	from    []int
	accepts []int
}

// nodeRecycler is node's endpoint's handle on a shared recorder.
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

// newEndpointRig puts a TokenB endpoint on every node of a 2×2 mesh, each
// with a gateAgent refusing refuse(node) offers, all recycling into one
// recorder.
func newEndpointRig(t *testing.T, refuse func(node int) int) (*sim.Kernel, []*Endpoint, []*gateAgent, *recorder) {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	mesh, err := noc.NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	tb := NewTokenB()
	k.Register(tb)
	rec := &recorder{}
	var eps []*Endpoint
	var agents []*gateAgent
	for node := 0; node < cfg.Nodes(); node++ {
		a := &gateAgent{t: t, rec: rec, node: node, refuse: refuse(node)}
		ep := NewEndpoint(node, mesh, tb, a)
		ep.SetRecycler(nodeRecycler{rec: rec, node: node})
		ep.BindActivity(k.RegisterGroup(node, ep))
		eps = append(eps, ep)
		agents = append(agents, a)
	}
	mesh.Register(k)
	return k, eps, agents, rec
}

// TestEndpointRecyclesAcceptedResponse checks a response goes back to the
// pool once, only after the agent accepted it, and never while a refusal
// keeps it queued for retry.
func TestEndpointRecyclesAcceptedResponse(t *testing.T) {
	k, eps, agents, rec := newEndpointRig(t, func(int) int { return 3 })
	resp := &noc.Packet{ID: 1, VNet: noc.UOResp, Src: 3, Dst: 0, Flits: 3}
	eps[3].SendResponse(resp)
	a := agents[0]
	if !k.RunUntil(func() bool { return len(a.accepted) == 1 }, 2000) {
		t.Fatal("response never accepted")
	}
	if a.offers != 4 {
		t.Fatalf("response offered %d times, want 3 refusals and an accept", a.offers)
	}
	if len(rec.got) != 1 || rec.got[0] != resp {
		t.Fatalf("recycled %v, want the accepted response once", rec.got)
	}
}

// TestEndpointRecyclesBroadcastAtLastDelivery checks an ordered request,
// which every node delivers (its source from the loopback), goes back to
// the machine's pool exactly once, from the node that delivered it last,
// and only after every node's agent accepted it, though each agent refuses
// a few offers first.
func TestEndpointRecyclesBroadcastAtLastDelivery(t *testing.T) {
	k, eps, agents, rec := newEndpointRig(t, func(node int) int { return 2 * node })
	p := &noc.Packet{ID: 1, VNet: noc.GOReq, Src: 1, SID: 1, Broadcast: true, Flits: 1}
	eps[1].SendRequest(p)
	if !k.RunUntil(func() bool { return len(rec.accepts) == len(agents) }, 2000) {
		t.Fatalf("broadcast accepted at nodes %v, want all %d", rec.accepts, len(agents))
	}
	k.Run(50)
	for node, a := range agents {
		if len(a.accepted) != 1 || a.offers != a.refuse+1 {
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
}
