package baseline

import (
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/sim"
)

// recorder is a Recycler that lists what it was handed.
type recorder struct{ got []*noc.Packet }

func (r *recorder) Recycle(p *noc.Packet) { r.got = append(r.got, p) }

// gateAgent refuses its first refuse responses, then accepts, and checks
// that no offered packet was recycled while it was on offer. It accepts
// every request.
type gateAgent struct {
	t        *testing.T
	rec      *recorder
	refuse   int
	offers   int
	requests int
	accepted []*noc.Packet
}

func (a *gateAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool {
	a.requests++
	return true
}

func (a *gateAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	if len(a.rec.got) != 0 {
		a.t.Fatalf("packet %s recycled before the agent accepted it", p)
	}
	if a.offers++; a.offers <= a.refuse {
		return false
	}
	a.accepted = append(a.accepted, p)
	return true
}

// newEndpointRig puts a TokenB endpoint with a gateAgent and a recorder on
// every node of a 2×2 mesh.
func newEndpointRig(t *testing.T, refuse int) (*sim.Kernel, []*Endpoint, []*gateAgent) {
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
	var eps []*Endpoint
	var agents []*gateAgent
	for node := 0; node < cfg.Nodes(); node++ {
		a := &gateAgent{t: t, rec: &recorder{}, refuse: refuse}
		ep := NewEndpoint(node, mesh, tb, a)
		ep.SetRecycler(a.rec)
		ep.BindActivity(k.RegisterGroup(node, ep))
		eps = append(eps, ep)
		agents = append(agents, a)
	}
	mesh.Register(k)
	return k, eps, agents
}

// TestEndpointRecyclesAcceptedResponse checks a response goes back to the
// pool once, only after the agent accepted it, and never while a refusal
// keeps it queued for retry.
func TestEndpointRecyclesAcceptedResponse(t *testing.T) {
	k, eps, agents := newEndpointRig(t, 3)
	resp := &noc.Packet{ID: 1, VNet: noc.UOResp, Src: 3, Dst: 0, Flits: 3}
	eps[3].SendResponse(resp)
	a := agents[0]
	if !k.RunUntil(func() bool { return len(a.accepted) == 1 }, 2000) {
		t.Fatal("response never accepted")
	}
	if a.offers != 4 {
		t.Fatalf("response offered %d times, want 3 refusals and an accept", a.offers)
	}
	if len(a.rec.got) != 1 || a.rec.got[0] != resp {
		t.Fatalf("recycled %v, want the accepted response once", a.rec.got)
	}
}

// TestEndpointNeverRecyclesBroadcast checks an ordered request, which every
// node shares, stays with the garbage collector.
func TestEndpointNeverRecyclesBroadcast(t *testing.T) {
	k, eps, agents := newEndpointRig(t, 0)
	eps[1].SendRequest(&noc.Packet{ID: 1, VNet: noc.GOReq, Src: 1, SID: 1, Broadcast: true, Flits: 1})
	done := func() bool {
		for _, a := range agents {
			if a.requests != 1 {
				return false
			}
		}
		return true
	}
	if !k.RunUntil(done, 2000) {
		t.Fatal("broadcast not delivered everywhere")
	}
	for node, a := range agents {
		if len(a.rec.got) != 0 {
			t.Fatalf("node %d recycled the broadcast", node)
		}
	}
}
