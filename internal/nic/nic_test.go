package nic

import (
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/notif"
	"scorpio/internal/sim"
)

// delivery records one ordered delivery observed by a test agent.
type delivery struct {
	sid int
	id  uint64
}

// testAgent records deliveries and injects a scripted stream of broadcast
// requests through its NIC.
type testAgent struct {
	nic      *NIC
	node     int
	toSend   int
	sent     int
	ordered  []delivery
	resps    []uint64
	every    int // try to inject every `every` cycles (1 = every cycle)
	readyGap int // agent refuses deliveries for readyGap-1 of every readyGap cycles
	refuse   func() bool
	mesh     *noc.Mesh
}

func (a *testAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool {
	if a.readyGap > 1 && cycle%uint64(a.readyGap) != 0 {
		return false
	}
	if a.refuse != nil && a.refuse() {
		return false
	}
	a.ordered = append(a.ordered, delivery{sid: p.SID, id: p.ID})
	return true
}

func (a *testAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	a.resps = append(a.resps, p.ID)
	return true
}

func (a *testAgent) Evaluate(cycle uint64) {
	if a.sent >= a.toSend {
		return
	}
	if a.every > 1 && cycle%uint64(a.every) != 0 {
		return
	}
	p := &noc.Packet{
		ID:          a.mesh.NextPacketID(),
		VNet:        noc.GOReq,
		Src:         a.node,
		SID:         a.node,
		Broadcast:   true,
		Flits:       1,
		InjectCycle: cycle,
	}
	if a.nic.SendRequest(p) {
		a.sent++
	}
}

func (a *testAgent) Commit(cycle uint64) {}

type harness struct {
	k      *sim.Kernel
	mesh   *noc.Mesh
	nnet   *notif.Network
	nics   []*NIC
	agents []*testAgent
}

func newHarness(t *testing.T, w, h int, nicCfg Config, notifBits int) *harness {
	return newHarnessPerNode(t, w, h, func(int) Config { return nicCfg }, notifBits)
}

func newHarnessPerNode(t *testing.T, w, h int, cfgFor func(node int) Config, notifBits int) *harness {
	t.Helper()
	netCfg := noc.DefaultConfig()
	netCfg.Width, netCfg.Height = w, h
	mesh, err := noc.NewMesh(netCfg)
	if err != nil {
		t.Fatal(err)
	}
	history := 1
	for node := 0; node < netCfg.Nodes(); node++ {
		history = max(history, cfgFor(node).History())
	}
	nnet, err := notif.NewNetwork(notif.Config{Width: w, Height: h, BitsPerCore: notifBits}, history)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	hn := &harness{k: k, mesh: mesh, nnet: nnet}
	for node := 0; node < netCfg.Nodes(); node++ {
		ag := &testAgent{node: node, mesh: mesh, every: 1}
		n := New(node, cfgFor(node), mesh, nnet, ag)
		ag.nic = n
		hn.nics = append(hn.nics, n)
		hn.agents = append(hn.agents, ag)
		// Mirror the real assembly (core.NewOrderedNet): the agent and NIC
		// share a scheduling unit, and the unit is woken by link traffic and
		// notification deliveries.
		act := k.RegisterGroup(node, ag)
		k.RegisterGroup(node, n)
		n.BindActivity(act)
		nnet.SetSourceActivity(node, act)
	}
	mesh.Register(k)
	nnetAct := k.Register(nnet)
	for _, n := range hn.nics {
		n.SetNotifActivity(nnetAct)
	}
	return hn
}

func (h *harness) totalDelivered() int {
	n := 0
	for _, a := range h.agents {
		n += len(a.ordered)
	}
	return n
}

func (h *harness) runUntilDelivered(t *testing.T, want, limit int) {
	t.Helper()
	if !h.k.RunUntil(func() bool { return h.totalDelivered() == want }, uint64(limit)) {
		t.Fatalf("delivered %d/%d ordered requests within %d cycles", h.totalDelivered(), want, limit)
	}
}

// assertGlobalOrder checks the central SCORPIO invariant: every node
// observed the identical sequence of ordered requests.
func assertGlobalOrder(t *testing.T, agents []*testAgent) {
	t.Helper()
	ref := agents[0].ordered
	for i, a := range agents[1:] {
		if len(a.ordered) != len(ref) {
			t.Fatalf("node %d delivered %d requests, node 0 delivered %d", i+1, len(a.ordered), len(ref))
		}
		for j := range ref {
			if a.ordered[j] != ref[j] {
				t.Fatalf("global order diverged at position %d: node 0 saw %+v, node %d saw %+v", j, ref[j], i+1, a.ordered[j])
			}
		}
	}
}

func TestSingleRequestOrderedEverywhere(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultConfig(), 1)
	h.agents[5].toSend = 1
	h.runUntilDelivered(t, 16, 2000)
	assertGlobalOrder(t, h.agents)
	if h.agents[0].ordered[0].sid != 5 {
		t.Fatalf("ordered SID = %d, want 5", h.agents[0].ordered[0].sid)
	}
	// The sender's own copy must be delivered too (loopback).
	if len(h.agents[5].ordered) != 1 {
		t.Fatal("source did not process its own request")
	}
}

func TestConcurrentRequestsConsistentGlobalOrder(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultConfig(), 1)
	for _, a := range h.agents {
		a.toSend = 5
	}
	want := 16 * 5 * 16 // every node delivers every request
	h.runUntilDelivered(t, want, 60000)
	assertGlobalOrder(t, h.agents)
}

func TestPerSourceFIFOWithinGlobalOrder(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultConfig(), 1)
	for _, a := range h.agents {
		a.toSend = 8
	}
	h.runUntilDelivered(t, 16*8*16, 100000)
	assertGlobalOrder(t, h.agents)
	// Within node 0's observed sequence, each source's packets appear in
	// increasing packet-ID (injection) order.
	last := map[int]uint64{}
	for _, d := range h.agents[0].ordered {
		if prev, ok := last[d.sid]; ok && d.id <= prev {
			t.Fatalf("source %d packets reordered: %d after %d", d.sid, d.id, prev)
		}
		last[d.sid] = d.id
	}
}

func TestSlowAgentsStillAgreeOnOrder(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultConfig(), 2)
	for i, a := range h.agents {
		a.toSend = 4
		a.readyGap = 1 + i%4 // heterogeneous consumption rates
	}
	h.runUntilDelivered(t, 16*4*16, 200000)
	assertGlobalOrder(t, h.agents)
}

func TestNotificationCounterBlocksBursts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPendingNotifs = 2
	h := newHarness(t, 4, 4, cfg, 1)
	h.agents[0].toSend = 10
	h.runUntilDelivered(t, 10*16, 30000)
	assertGlobalOrder(t, h.agents)
	if h.nics[0].Stats.SendBlocked == 0 {
		t.Fatal("a 10-request burst with MaxPendingNotifs=2 must block at least once")
	}
}

func TestStopBitBackpressureLosesNothing(t *testing.T) {
	// Node 0 has a tiny tracker queue and a very slow agent: it keeps its
	// tracker occupied and stops the fleet while the fast nodes keep
	// announcing — their announcements get voided and must be resent.
	h := newHarnessPerNode(t, 4, 4, func(node int) Config {
		cfg := DefaultConfig()
		if node == 0 {
			cfg.TrackerDepth = 2
		} else {
			cfg.TrackerDepth = 64
		}
		return cfg
	}, 2)
	for i, a := range h.agents {
		if i != 0 {
			a.toSend = 6
			a.every = 25 // spread injections so announcements overlap stops
		}
	}
	h.agents[0].readyGap = 12
	h.runUntilDelivered(t, 15*6*16, 400000)
	assertGlobalOrder(t, h.agents)
	stopped := false
	for _, n := range h.nics {
		if n.Stats.StoppedResends > 0 {
			stopped = true
		}
	}
	if !stopped {
		t.Fatal("expected at least one stop-voided window under tracker pressure")
	}
}

func TestMultiBitNotificationAllowsBurstsPerWindow(t *testing.T) {
	// With 2 bits per core a 3-request burst is announced in one window.
	h2 := newHarness(t, 4, 4, DefaultConfig(), 2)
	h2.agents[3].toSend = 3
	h2.runUntilDelivered(t, 3*16, 4000)
	if got := h2.nnet.WindowsDelivered; got != 1 {
		t.Fatalf("2-bit encoding: burst of 3 used %d windows, want 1", got)
	}
	// With 1 bit per core the same burst needs three windows.
	h1 := newHarness(t, 4, 4, DefaultConfig(), 1)
	h1.agents[3].toSend = 3
	h1.runUntilDelivered(t, 3*16, 4000)
	if got := h1.nnet.WindowsDelivered; got != 3 {
		t.Fatalf("1-bit encoding: burst of 3 used %d windows, want 3", got)
	}
}

func TestResponsesFlowDuringOrderedTraffic(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultConfig(), 1)
	for _, a := range h.agents {
		a.toSend = 2
	}
	resp := &noc.Packet{ID: h.mesh.NextPacketID(), VNet: noc.UOResp, Src: 15, Dst: 0, Flits: 3, InjectCycle: 0}
	if !h.nics[15].SendResponse(resp) {
		t.Fatal("SendResponse rejected with empty queue")
	}
	h.runUntilDelivered(t, 16*2*16, 60000)
	if len(h.agents[0].resps) != 1 || h.agents[0].resps[0] != resp.ID {
		t.Fatalf("response not delivered: %v", h.agents[0].resps)
	}
	assertGlobalOrder(t, h.agents)
}

func TestSendRequestValidation(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unicast GO-REQ must panic")
		}
	}()
	h.nics[0].SendRequest(&noc.Packet{VNet: noc.GOReq, SID: 0, Broadcast: false, Flits: 1})
}

func TestOrderingLatencyIsBounded(t *testing.T) {
	h := newHarness(t, 6, 6, DefaultConfig(), 1)
	h.agents[0].toSend = 1
	h.runUntilDelivered(t, 36, 2000)
	// A single request in an idle network: ordering happens within a couple
	// of notification windows (window = 13 cycles for 6x6).
	for _, n := range h.nics {
		if m := n.Stats.OrderingLatency; m.Count > 0 && m.Value() > 40 {
			t.Fatalf("node %d ordering latency %.1f cycles, want < 40 in an idle mesh", n.Node(), m.Value())
		}
	}
}
