package noc

import (
	"reflect"
	"sort"
	"testing"
)

// rectNodes lists the nodes of a coverage rectangle in row-major order.
func rectNodes(cfg Config, c rect) []int {
	var out []int
	for y := int(c.y0); y <= int(c.y1); y++ {
		for x := int(c.x0); x <= int(c.x1); x++ {
			out = append(out, cfg.NodeAt(x, y))
		}
	}
	return out
}

// neighbour returns the node behind port p of router node.
func neighbour(cfg Config, node int, p Port) int {
	x, y := cfg.Coord(node)
	switch p {
	case North:
		y--
	case East:
		x++
	case South:
		y++
	case West:
		x--
	}
	return cfg.NodeAt(x, y)
}

// walkBranch follows the XY multicast tree hop by hop from router node,
// entered through port entry, and appends every node the branch delivers to.
func walkBranch(m *Mesh, node int, entry Port, out []int) []int {
	mask := m.routers[node].broadcastMask(entry)
	if mask&portMask(Local) != 0 {
		out = append(out, node)
	}
	for p := Port(North); p < NumPorts; p++ {
		if mask&portMask(p) != 0 {
			out = walkBranch(m, neighbour(m.cfg, node, p), p.opposite(), out)
		}
	}
	return out
}

// TestCoverageRectanglesAreBroadcastSubtrees checks every router's output-port
// rectangle against the node set a broadcast branch actually reaches through
// that port, found by walking broadcastMask from the downstream router.
func TestCoverageRectanglesAreBroadcastSubtrees(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {3, 5}, {7, 3}, {6, 6}, {16, 16}} {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = shape[0], shape[1]
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id := range m.routers {
			r := &m.routers[id]
			for p := Port(0); p < NumPorts; p++ {
				if r.outLink[p] == nil {
					continue
				}
				want := []int{id}
				if p != Local {
					want = walkBranch(m, neighbour(cfg, id, p), p.opposite(), nil)
				}
				sort.Ints(want)
				got := rectNodes(cfg, r.cover[p])
				sort.Ints(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d router %d port %s: rectangle %+v covers %v, broadcast branch reaches %v",
						cfg.Width, cfg.Height, id, p, r.cover[p], got, want)
				}
			}
		}
	}
}

// TestRouterReservedVCGoesOnlyToExpectedOccurrence drives the router's own
// reserved-VC decision, made once at SA-I: with every ordinary GO-REQ VC of
// one East port busy, SA-I finds East serviceable, through the reserved VC,
// only when a NIC inside the East subtree published exactly the head flit's
// (SID, sequence) on the ESID board.
func TestRouterReservedVCGoesOnlyToExpectedOccurrence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	// A broadcast from node 4, at (0, 1), crossing router (1, 1) eastward.
	const sid, seq = 4, 7
	at := cfg.NodeAt(1, 1)
	east, west := cfg.NodeAt(3, 2), cfg.NodeAt(0, 2)
	cases := []struct {
		name  string
		node  int
		seq   uint64
		valid bool
		want  bool
	}{
		{"exact occurrence in the east subtree", east, seq, true, true},
		{"next occurrence of the same SID", east, seq + 1, true, false},
		{"exact occurrence only in the west subtree", west, seq, true, false},
		{"entry not valid", east, seq, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMesh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := &m.routers[at]
			for vc := 0; vc < cfg.GOReqVCs; vc++ {
				r.trk.claimHeadVC(East, GOReq, vc, 8+vc)
			}
			m.PublishESID(tc.node, sid, tc.seq, tc.valid)
			f := NewFlit(&Packet{VNet: GOReq, Src: sid, SID: sid, SrcSeq: seq, Broadcast: true, Flits: 1}, 0, 0)
			f.outPorts = portMask(East)
			var vcs [NumPorts]int8
			if got := r.serviceablePorts(0, &f, &vcs) != 0; got != tc.want {
				t.Fatalf("East serviceable = %v, want %v", got, tc.want)
			}
			if tc.want && int(vcs[East]) != cfg.ReservedVC(GOReq) {
				t.Fatalf("SA-I found VC %d, want the reserved VC %d", vcs[East], cfg.ReservedVC(GOReq))
			}
		})
	}
}

// TestNewMeshAllocsLinearInNodes holds mesh construction to a constant
// allocation cost per node: per-node allocations at 16×16 may not exceed
// 1.2× those at 6×6.
func TestNewMeshAllocsLinearInNodes(t *testing.T) {
	perNode := func(w, h int) float64 {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = w, h
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := NewMesh(cfg); err != nil {
				panic(err)
			}
		})
		return allocs / float64(cfg.Nodes())
	}
	small, large := perNode(6, 6), perNode(16, 16)
	t.Logf("NewMesh allocations per node: 6x6 %.1f, 16x16 %.1f", small, large)
	if large > 1.2*small {
		t.Fatalf("16x16 build allocates %.1f per node, over 1.2x the 6x6 build's %.1f", large, small)
	}
}
