package noc

import (
	"fmt"
	"testing"

	"scorpio/internal/sim"
)

// oracleEndpoint injects one packet at a time and records the cycle the
// tail of each packet reached its node, consuming every flit on arrival. It
// parks between packets, so a large mesh costs only the routers a packet
// crosses.
type oracleEndpoint struct {
	node   int
	mesh   *Mesh
	term   *Terminal
	act    *sim.Activity
	send   *Packet // next packet to inject (nil = none)
	now    uint64
	arrive uint64 // tail arrival cycle of the last packet seen here
	seen   *int   // tail arrivals anywhere in the mesh
}

func (e *oracleEndpoint) Evaluate(cycle uint64) {
	e.now = cycle
	e.term.TakeCredits(cycle)
	ej := e.mesh.EjectLink(e.node)
	if f := ej.Flit(cycle); f != nil {
		ej.SendCredit(Credit{VNet: f.Pkt.VNet, VC: f.InVC(), FreeVC: f.IsTail()}, cycle)
		if f.IsTail() {
			e.arrive = cycle
			*e.seen++
		}
	}
	if e.term.Busy() {
		e.term.Continue(cycle)
	} else if e.send != nil && e.term.Start(e.send, cycle) {
		e.send = nil
	}
}

func (e *oracleEndpoint) Commit(uint64) {}

// Idle lets an endpoint with nothing to send park between its packets.
func (e *oracleEndpoint) Idle() bool {
	return e.send == nil && !e.term.Busy() && e.term.Quiet(e.now)
}

// oracleNet is a mesh with one oracleEndpoint per node. Packets are sent one
// at a time and the mesh drains between them, so each meets an empty
// network: every credit home, every VC free.
type oracleNet struct {
	k    *sim.Kernel
	m    *Mesh
	eps  []oracleEndpoint
	seen int
}

func newOracleNet(t *testing.T, cfg Config) *oracleNet {
	t.Helper()
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracleNet{k: sim.NewKernel(), m: m, eps: make([]oracleEndpoint, cfg.Nodes())}
	for i := range o.eps {
		e := &o.eps[i]
		*e = oracleEndpoint{node: i, mesh: m, term: m.Terminal(i), seen: &o.seen}
		e.act = o.k.Register(e)
		e.term.Bind(e.act)
	}
	m.Register(o.k)
	return o
}

// run injects p at its source, steps until want tail arrivals have landed,
// then lets the last credits return so the next packet finds the mesh empty.
func (o *oracleNet) run(t *testing.T, p *Packet, want int) {
	t.Helper()
	want += o.seen
	o.eps[p.Src].send = p
	o.eps[p.Src].act.Wake(o.k.Cycle(), sim.WakeOther)
	if !o.k.RunUntil(func() bool { return o.seen == want }, o.k.Cycle()+2000) {
		t.Fatalf("%s did not arrive within 2000 cycles", p)
	}
	o.k.Run(2)
	if n := o.m.BufferedFlits(); n != 0 {
		t.Fatalf("%d flits still buffered after %s arrived", n, p)
	}
}

// hops is the XY (Manhattan) distance between two nodes.
func hops(cfg Config, a, b int) int {
	ax, ay := cfg.Coord(a)
	bx, by := cfg.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// zeroLoadLatency is the pipeline's closed form for a lone packet's network
// latency, arrival minus NetworkEntry: one cycle on the injection link, then
// at each of the hops+1 routers one traversal of s cycles (1 through the
// bypass, RouterStages without it) and one link cycle, then one cycle per
// body flit behind the head.
func zeroLoadLatency(cfg Config, hops, flits int) int {
	s := cfg.RouterStages
	if cfg.Bypass {
		s = 1
	}
	return 1 + (hops+1)*(1+s) + (flits - 1)
}

// bodyLateness is how many cycles after zeroLoadLatency a lone multi-flit
// packet's tail arrives with today's router (DESIGN.md §4):
//
//   - Bypass on: a body flit that arrives while the flit ahead of it still
//     sits in its VC is no bypass candidate and waits out the full pipeline,
//     so each body flit costs RouterStages−1 extra cycles. Packets longer
//     than the UO-RESP VC depth arrive one body flit's worth earlier at one
//     hop; no closed form covers that case, so it is pinned as measured.
//   - Bypass off: a packet longer than the VC depth d waits at injection for
//     its first flit's credit, which returns RouterStages+2 cycles after that
//     flit left, where flit d wanted to go d cycles after it. This holds for
//     packets of up to 2d flits.
func bodyLateness(cfg Config, hops, flits int) int {
	s, d := cfg.RouterStages, cfg.UORespBufDepth
	if cfg.Bypass {
		if flits > d && hops == 1 {
			return (flits - 2) * (s - 1)
		}
		return (flits - 1) * (s - 1)
	}
	if flits > d {
		return max(0, s+2-d)
	}
	return 0
}

// oracleConfigs lists both bypass settings at 1-4 router stages on a mesh
// of the given shape.
func oracleConfigs(w, h int) []Config {
	var out []Config
	for _, bypass := range []bool{true, false} {
		for stages := 1; stages <= 4; stages++ {
			cfg := DefaultConfig()
			cfg.Width, cfg.Height, cfg.Bypass, cfg.RouterStages = w, h, bypass, stages
			out = append(out, cfg)
		}
	}
	return out
}

// oracleShapes lists the meshes the oracle covers and the unicast sources it
// sends from: every node up to 6×6, three at 8×8, and at 16×16 one corner,
// which reaches every hop count.
var oracleShapes = []struct {
	w, h    int
	sources []int // nil = every node
}{
	{2, 2, nil}, {3, 3, nil}, {4, 4, nil}, {6, 6, nil}, {3, 5, nil}, {5, 2, nil},
	{8, 8, []int{0, 27, 63}},
	{16, 16, []int{0}},
}

// everyNode lists a mesh's nodes.
func everyNode(cfg Config) []int {
	all := make([]int, cfg.Nodes())
	for i := range all {
		all[i] = i
	}
	return all
}

// TestZeroLoadUnicastLatency sends one 1- to 5-flit unicast packet at a time
// into an empty mesh, from each listed source to every other node, at both
// bypass settings and 1-4 router stages, and holds each arrival to the
// closed form plus today's body-flit lateness.
func TestZeroLoadUnicastLatency(t *testing.T) {
	for _, sh := range oracleShapes {
		for _, cfg := range oracleConfigs(sh.w, sh.h) {
			sources := sh.sources
			if sources == nil {
				sources = everyNode(cfg)
			}
			t.Run(fmt.Sprintf("%dx%d/bypass=%v/stages=%d", sh.w, sh.h, cfg.Bypass, cfg.RouterStages), func(t *testing.T) {
				o := newOracleNet(t, cfg)
				bad := 0
				for flits := 1; flits <= 5; flits++ {
					for _, src := range sources {
						for dst := 0; dst < cfg.Nodes(); dst++ {
							if dst == src {
								continue
							}
							p := &Packet{ID: o.m.NextPacketID(), VNet: UOResp, Src: src, Dst: dst, Flits: flits}
							o.run(t, p, 1)
							h := hops(cfg, src, dst)
							got := int(o.eps[dst].arrive - p.NetworkEntry)
							if want := zeroLoadLatency(cfg, h, flits) + bodyLateness(cfg, h, flits); got != want {
								if bad < 5 {
									t.Errorf("%d-flit packet %d->%d (%d hops): latency %d, want %d", flits, src, dst, h, got, want)
								}
								bad++
							}
						}
					}
				}
				if bad > 0 {
					t.Fatalf("%d packets off the oracle", bad)
				}
			})
		}
	}
}

// TestZeroLoadBroadcastLatency sends one broadcast at a time into an empty
// mesh from every node up to 8×8 and from four spread nodes at 16×16, and
// holds its arrival at every other node to the single-flit closed form:
// XY-tree multicast reaches each destination along its unicast path.
func TestZeroLoadBroadcastLatency(t *testing.T) {
	for _, sh := range oracleShapes {
		for _, cfg := range oracleConfigs(sh.w, sh.h) {
			sources := everyNode(cfg)
			if cfg.Nodes() > 64 {
				sources = []int{0, cfg.Width - 1, cfg.NodeAt(cfg.Width/2, cfg.Height/2), cfg.Nodes() - 1}
			}
			t.Run(fmt.Sprintf("%dx%d/bypass=%v/stages=%d", sh.w, sh.h, cfg.Bypass, cfg.RouterStages), func(t *testing.T) {
				o := newOracleNet(t, cfg)
				for _, src := range sources {
					p := &Packet{ID: o.m.NextPacketID(), VNet: GOReq, Src: src, SID: src, Broadcast: true, Flits: 1}
					o.run(t, p, cfg.Nodes()-1)
					for dst := range o.eps {
						if dst == src {
							continue
						}
						h := hops(cfg, src, dst)
						if got, want := int(o.eps[dst].arrive-p.NetworkEntry), zeroLoadLatency(cfg, h, 1); got != want {
							t.Fatalf("broadcast from %d: arrival at %d (%d hops) after %d cycles, want %d", src, dst, h, got, want)
						}
					}
				}
			})
		}
	}
}
