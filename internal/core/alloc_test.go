package core

import (
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/sim"
)

// floodAgent offers its NIC a broadcast request and a response to the next
// node every cycle from cycle 1 on, and accepts every delivery. Its packets
// come from a fixed free list that the NIC hands back at each packet's
// last delivery (floodPool), so the agent itself never allocates.
type floodAgent struct {
	net  *OrderedNet
	node int
	free []*noc.Packet
	sent int
}

func (a *floodAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool { return true }

func (a *floodAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool { return true }

func (a *floodAgent) Evaluate(cycle uint64) {
	if cycle == 0 {
		return
	}
	a.send(cycle, noc.Packet{VNet: noc.GOReq, SID: a.node, Broadcast: true, Flits: 1})
	a.send(cycle, noc.Packet{VNet: noc.UOResp, Dst: (a.node + 1) % a.net.Nodes(), Flits: 3})
}

// send offers its NIC the packet m from the free list.
func (a *floodAgent) send(cycle uint64, m noc.Packet) {
	k := len(a.free)
	if k == 0 {
		return
	}
	p := a.free[k-1]
	*p = m
	p.ID, p.Src, p.InjectCycle = a.net.NewPacketID(), a.node, cycle
	sent := false
	if m.VNet == noc.GOReq {
		sent = a.net.NIC(a.node).SendRequest(p)
	} else {
		sent = a.net.NIC(a.node).SendResponse(p)
	}
	if sent {
		a.free = a.free[:k-1]
		a.sent++
	}
}

func (a *floodAgent) Commit(cycle uint64) {}

// floodPool returns each packet to its source's free list.
type floodPool []*floodAgent

func (f floodPool) Recycle(p *noc.Packet) {
	a := f[p.Src]
	a.free = append(a.free, p)
}

// buildFlood builds a w×h ordered net of flood agents on a serial kernel,
// each with perNode packets.
func buildFlood(t *testing.T, w, h, perNode int) (*sim.Kernel, *OrderedNet, floodPool) {
	t.Helper()
	k := sim.NewKernel()
	on, err := NewOrderedNet(DefaultConfig().WithMeshSize(w, h), k)
	if err != nil {
		t.Fatal(err)
	}
	pool := make(floodPool, on.Nodes())
	pkts := make([]noc.Packet, on.Nodes()*perNode)
	for node := range pool {
		a := &floodAgent{net: on, node: node, free: make([]*noc.Packet, 0, perNode)}
		for i := 0; i < perNode; i++ {
			a.free = append(a.free, &pkts[node*perNode+i])
		}
		pool[node] = a
		on.AttachAgent(node, a)
		on.NIC(node).SetRecycler(pool)
		k.Register(a)
	}
	return k, on, pool
}

// TestOrderedNetAllocatesNothingFromCycleZero pins the ordered path at zero
// allocations from a fresh build on: every node of an 8×8 net broadcasts
// as fast as its NIC takes requests, so each node's tracker fills until
// stop windows throttle the fleet, and sends responses besides; its first
// 3,000 cycles (176 windows) must allocate nothing. The kernel builds its
// scheduling units in its first Step, so cycle 0, in which the agents send
// nothing, is stepped as part of the build; every first send, window and
// expansion falls in the measured cycles. testing.AllocsPerRun runs its
// function once before measuring; that run steps a second net, so it
// absorbs one-time runtime set-up without warming the measured one.
func TestOrderedNetAllocatesNothingFromCycleZero(t *testing.T) {
	const cycles = 3000
	warmK, _, _ := buildFlood(t, 8, 8, 48)
	k, on, pool := buildFlood(t, 8, 8, 48)
	kernels := []*sim.Kernel{warmK, k}
	for _, k := range kernels {
		k.Step()
	}
	allocs := testing.AllocsPerRun(1, func() {
		run := kernels[0]
		kernels = kernels[1:]
		for c := 1; c < cycles; c++ {
			run.Step()
		}
	})
	if stopped := on.Notif().StoppedWindows; stopped == 0 {
		t.Fatal("no stop window: the trackers never filled")
	}
	sent := 0
	for _, a := range pool {
		sent += a.sent
	}
	if err := on.VerifyGlobalOrder(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cycles: %d packets sent, %d ordered at the slowest node, %d stop windows, %.0f allocations",
		cycles, sent, on.OrderedDeliveries(), on.Notif().StoppedWindows, allocs)
	if allocs != 0 {
		t.Fatalf("a fresh ordered net allocated %.0f times over its first %d cycles, want 0", allocs, cycles)
	}
}
