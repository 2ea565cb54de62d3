package noc

import (
	"testing"

	"scorpio/internal/sim"
)

// testEndpoint is a minimal agent for network-level tests: it injects queued
// packets through a Terminal and consumes arriving flits immediately,
// returning credits.
type testEndpoint struct {
	node     int
	mesh     *Mesh
	term     *Terminal
	sendQ    []*Packet
	Received []*Packet
	arrivals map[uint64]int // packet ID -> flits seen
}

func newTestEndpoint(mesh *Mesh, node int) *testEndpoint {
	return &testEndpoint{
		node:     node,
		mesh:     mesh,
		term:     NewTerminal(mesh, node),
		arrivals: map[uint64]int{},
	}
}

func (e *testEndpoint) Queue(p *Packet) { e.sendQ = append(e.sendQ, p) }

func (e *testEndpoint) Evaluate(cycle uint64) {
	e.term.TakeCredits(cycle)
	// Consume arriving flits immediately (no ordering in pure-noc tests).
	ej := e.mesh.EjectLink(e.node)
	if f := ej.Flit(cycle); f != nil {
		e.arrivals[f.Pkt.ID]++
		ej.SendCredit(Credit{VNet: f.Pkt.VNet, VC: f.InVC(), FreeVC: f.IsTail()}, cycle)
		if f.IsTail() {
			f.Pkt.ArriveCycle = cycle
			e.Received = append(e.Received, f.Pkt)
		}
	}
	e.inject(cycle)
}

// inject sends at most one flit per cycle, in queue order.
func (e *testEndpoint) inject(cycle uint64) {
	if e.term.Busy() {
		e.term.Continue(cycle)
	} else if len(e.sendQ) > 0 && e.term.Start(e.sendQ[0], cycle) {
		e.sendQ = e.sendQ[1:]
	}
}

func (e *testEndpoint) Commit(cycle uint64) {}

// testNet builds a mesh with one testEndpoint per node, all registered on a
// kernel.
func testNet(t *testing.T, cfg Config) (*sim.Kernel, *Mesh, []*testEndpoint) {
	t.Helper()
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	eps := make([]*testEndpoint, cfg.Nodes())
	for i := range eps {
		eps[i] = newTestEndpoint(m, i)
		k.Register(eps[i])
	}
	m.Register(k)
	return k, m, eps
}

func drain(t *testing.T, k *sim.Kernel, done func() bool, limit uint64) {
	t.Helper()
	if !k.RunUntil(done, k.Cycle()+limit) {
		t.Fatal("network did not drain within the cycle limit")
	}
}

func TestUnicastDeliveryAndLatencyWithBypass(t *testing.T) {
	cfg := DefaultConfig()
	k, m, eps := testNet(t, cfg)
	p := &Packet{ID: m.NextPacketID(), VNet: UOResp, Src: 0, Dst: 35, Flits: 1, InjectCycle: 0}
	eps[0].Queue(p)
	drain(t, k, func() bool { return len(eps[35].Received) == 1 }, 200)
	// Path: inject link (1) + 11 routers on the XY path, each 1-cycle bypass
	// + 1-cycle outgoing link.
	hops := 10 // manhattan distance 0 -> 35 in 6x6
	want := uint64(1 + (hops+1)*2)
	got := p.ArriveCycle - p.NetworkEntry
	if got != want {
		t.Fatalf("bypass latency = %d cycles, want %d", got, want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnicastLatencyWithoutBypass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bypass = false
	k, _, eps := testNet(t, cfg)
	p := &Packet{ID: 1, VNet: UOResp, Src: 0, Dst: 35, Flits: 1}
	eps[0].Queue(p)
	drain(t, k, func() bool { return len(eps[35].Received) == 1 }, 400)
	hops := 10
	want := uint64(1 + (hops+1)*4) // 3-stage router + link per hop
	got := p.ArriveCycle - p.NetworkEntry
	if got != want {
		t.Fatalf("no-bypass latency = %d cycles, want %d", got, want)
	}
}

func TestBroadcastReachesEveryOtherNodeExactlyOnce(t *testing.T) {
	cfg := DefaultConfig()
	for _, src := range []int{0, 7, 14, 21, 35, 5, 30} {
		k, m, eps := testNet(t, cfg)
		p := &Packet{ID: m.NextPacketID(), VNet: GOReq, Src: src, SID: src, Broadcast: true, Flits: 1}
		eps[src].Queue(p)
		drain(t, k, func() bool {
			n := 0
			for i, e := range eps {
				if i != src && len(e.Received) > 0 {
					n++
				}
			}
			return n == cfg.Nodes()-1
		}, 500)
		k.Run(100) // allow any duplicates to surface
		for i, e := range eps {
			want := 1
			if i == src {
				want = 0
			}
			if got := e.arrivals[p.ID]; got != want {
				t.Fatalf("src %d: node %d received %d copies, want %d", src, i, got, want)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultiFlitPacketArrivesInOrder(t *testing.T) {
	cfg := DefaultConfig()
	k, m, eps := testNet(t, cfg)
	p := &Packet{ID: m.NextPacketID(), VNet: UOResp, Src: 3, Dst: 32, Flits: cfg.DataPacketFlits()}
	eps[3].Queue(p)
	drain(t, k, func() bool { return len(eps[32].Received) == 1 }, 300)
	if got := eps[32].arrivals[p.ID]; got != p.Flits {
		t.Fatalf("received %d flits, want %d", got, p.Flits)
	}
}

func TestPointToPointOrderingSameSource(t *testing.T) {
	cfg := DefaultConfig()
	k, m, eps := testNet(t, cfg)
	const n = 20
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		p := &Packet{ID: m.NextPacketID(), VNet: GOReq, Src: 7, SID: 7, Broadcast: true, Flits: 1}
		ids[i] = p.ID
		eps[7].Queue(p)
	}
	drain(t, k, func() bool {
		for i, e := range eps {
			if i != 7 && len(e.Received) < n {
				return false
			}
		}
		return true
	}, 5000)
	for node, e := range eps {
		if node == 7 {
			continue
		}
		for i, p := range e.Received {
			if p.ID != ids[i] {
				t.Fatalf("node %d received packet %d at position %d, want %d — same-source requests reordered", node, p.ID, i, ids[i])
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditsRestoredAfterDrain(t *testing.T) {
	cfg := DefaultConfig()
	k, m, eps := testNet(t, cfg)
	rng := sim.NewRNG(1)
	total := 0
	for src := 0; src < cfg.Nodes(); src++ {
		for j := 0; j < 3; j++ {
			dst := rng.Intn(cfg.Nodes())
			if dst == src {
				continue
			}
			eps[src].Queue(&Packet{ID: m.NextPacketID(), VNet: UOResp, Src: src, Dst: dst, Flits: 1 + rng.Intn(3)})
			total++
		}
	}
	want := total
	drain(t, k, func() bool {
		got := 0
		for _, e := range eps {
			got += len(e.Received)
		}
		return got == want
	}, 20000)
	k.Run(50)
	for node := 0; node < cfg.Nodes(); node++ {
		r := m.Router(node)
		for p := Port(0); p < NumPorts; p++ {
			tr, ok := r.OutputState(p)
			if !ok {
				continue
			}
			for v := VNet(0); v < NumVNets; v++ {
				for i := 0; i < cfg.TotalVCs(v); i++ {
					if got := tr.Credits(v, i); got != cfg.BufDepthFor(v) {
						t.Fatalf("router %d port %s %s vc%d: credits %d after drain, want %d", node, p, v, i, got, cfg.BufDepthFor(v))
					}
					if tr.Busy(v, i) {
						t.Fatalf("router %d port %s %s vc%d still busy after drain", node, p, v, i)
					}
				}
			}
		}
	}
}

func TestRandomTrafficAllDeliveredExactlyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	k, m, eps := testNet(t, cfg)
	rng := sim.NewRNG(42)
	type expect struct{ dst int }
	sent := map[uint64]expect{}
	for i := 0; i < 200; i++ {
		src := rng.Intn(cfg.Nodes())
		dst := rng.Intn(cfg.Nodes())
		if dst == src {
			continue
		}
		flits := 1
		vnet := UOResp
		if rng.Bernoulli(0.5) {
			flits = cfg.DataPacketFlits()
		}
		p := &Packet{ID: m.NextPacketID(), VNet: vnet, Src: src, Dst: dst, Flits: flits}
		sent[p.ID] = expect{dst: dst}
		eps[src].Queue(p)
	}
	drain(t, k, func() bool {
		got := 0
		for _, e := range eps {
			got += len(e.Received)
		}
		return got == len(sent)
	}, 100000)
	k.Run(100)
	seen := map[uint64]int{}
	for node, e := range eps {
		for _, p := range e.Received {
			seen[p.ID]++
			if want := sent[p.ID].dst; want != node {
				t.Fatalf("packet %d delivered to node %d, want %d", p.ID, node, want)
			}
		}
	}
	for id := range sent {
		if seen[id] != 1 {
			t.Fatalf("packet %d delivered %d times", id, seen[id])
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMixedVNetTrafficKeepsClassesIndependent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	k, m, eps := testNet(t, cfg)
	// Saturate GO-REQ with broadcasts while UO-RESP unicasts flow.
	for i := 0; i < 10; i++ {
		eps[0].Queue(&Packet{ID: m.NextPacketID(), VNet: GOReq, Src: 0, SID: 0, Broadcast: true, Flits: 1})
	}
	resp := &Packet{ID: m.NextPacketID(), VNet: UOResp, Src: 15, Dst: 0, Flits: 3}
	eps[15].Queue(resp)
	drain(t, k, func() bool { return len(eps[0].Received) >= 1 }, 5000)
	if eps[0].arrivals[resp.ID] != 3 {
		t.Fatalf("UO-RESP packet incomplete: %d flits", eps[0].arrivals[resp.ID])
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Width = 1 },
		func(c *Config) { c.ChannelBytes = 0 },
		func(c *Config) { c.GOReqVCs = 0 },
		func(c *Config) { c.UORespVCs = 0 },
		func(c *Config) { c.GOReqBufDepth = 0 },
		func(c *Config) { c.RouterStages = 0 },
		func(c *Config) { c.LineBytes = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestDataPacketFlits(t *testing.T) {
	cases := []struct {
		channel, want int
	}{{8, 5}, {16, 3}, {32, 2}}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.ChannelBytes = c.channel
		if got := cfg.DataPacketFlits(); got != c.want {
			t.Fatalf("channel %dB: flits = %d, want %d", c.channel, got, c.want)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	for n := 0; n < cfg.Nodes(); n++ {
		x, y := cfg.Coord(n)
		if cfg.NodeAt(x, y) != n {
			t.Fatalf("coord round trip failed for node %d", n)
		}
		if x < 0 || x >= cfg.Width || y < 0 || y >= cfg.Height {
			t.Fatalf("node %d coordinates (%d,%d) out of range", n, x, y)
		}
	}
}

func TestPortOpposite(t *testing.T) {
	pairs := map[Port]Port{North: South, South: North, East: West, West: East, Local: Local}
	for p, want := range pairs {
		if got := p.opposite(); got != want {
			t.Fatalf("%s.opposite() = %s, want %s", p, got, want)
		}
	}
}

func TestRectangularMeshTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 6, 3
	k, m, eps := testNet(t, cfg)
	// Broadcast from a corner and the center of a non-square mesh.
	for _, src := range []int{0, 9, 17} {
		p := &Packet{ID: m.NextPacketID(), VNet: GOReq, Src: src, SID: src, Broadcast: true, Flits: 1}
		eps[src].Queue(p)
	}
	drain(t, k, func() bool {
		total := 0
		for _, e := range eps {
			total += len(e.Received)
		}
		return total == 3*(cfg.Nodes()-1)
	}, 2000)
	k.Run(50)
	for i, e := range eps {
		want := 3
		switch i {
		case 0, 9, 17:
			want = 2
		}
		if len(e.Received) != want {
			t.Fatalf("node %d received %d broadcasts, want %d", i, len(e.Received), want)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastCoverageProperty(t *testing.T) {
	// For random mesh shapes and sources, the XY multicast tree covers every
	// node except the source exactly once (checked via the static coverage
	// rectangles the reserved-VC logic uses).
	rng := sim.NewRNG(31)
	for trial := 0; trial < 30; trial++ {
		cfg := DefaultConfig()
		cfg.Width = 2 + rng.Intn(6)
		cfg.Height = 2 + rng.Intn(6)
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.Intn(cfg.Nodes())
		covered := map[int]int{}
		r := m.routers[src]
		for p := Port(North); p < NumPorts; p++ {
			if r.outLink[p] == nil {
				continue
			}
			for _, n := range rectNodes(cfg, r.cover[p]) {
				covered[n]++
			}
		}
		for n := 0; n < cfg.Nodes(); n++ {
			want := 1
			if n == src {
				want = 0
			}
			if covered[n] != want {
				t.Fatalf("trial %d (%dx%d, src %d): node %d covered %d times, want %d",
					trial, cfg.Width, cfg.Height, src, n, covered[n], want)
			}
		}
	}
}

func TestHotspotTrafficDrains(t *testing.T) {
	// Every node unicasts a burst at node 0: the worst-case ejection
	// hotspot must still drain with credits conserved.
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	k, m, eps := testNet(t, cfg)
	total := 0
	for src := 1; src < cfg.Nodes(); src++ {
		for j := 0; j < 4; j++ {
			eps[src].Queue(&Packet{ID: m.NextPacketID(), VNet: UOResp, Src: src, Dst: 0, Flits: 3})
			total++
		}
	}
	drain(t, k, func() bool { return len(eps[0].Received) == total }, 50000)
	k.Run(50)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBypassDisabledStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bypass = false
	cfg.Width, cfg.Height = 4, 4
	k, m, eps := testNet(t, cfg)
	for src := 0; src < cfg.Nodes(); src++ {
		eps[src].Queue(&Packet{ID: m.NextPacketID(), VNet: GOReq, Src: src, SID: src, Broadcast: true, Flits: 1})
	}
	want := cfg.Nodes() * (cfg.Nodes() - 1)
	drain(t, k, func() bool {
		got := 0
		for _, e := range eps {
			got += len(e.Received)
		}
		return got == want
	}, 50000)
	if m.Stats().Bypasses != 0 {
		t.Fatal("bypass disabled but bypasses counted")
	}
}
