package noc

import (
	"fmt"
	"strings"

	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/sim"
	"scorpio/internal/slab"
)

// Mesh is the assembled main network: k×k routers, the links between them,
// and per-node injection/ejection links where network interface controllers
// attach.
//
// Each component kind is one slice per mesh (see NewMesh): routers, links,
// terminals, and the tables and rings they cut their state from.
type Mesh struct {
	cfg     Config
	routers []Router
	// links holds every node's injection link, then every node's ejection
	// link, then the channels between routers.
	links     []Link
	terms     []*Terminal // cut from one slab
	board     []esidEntry
	nextPktID uint64
}

// esidEntry is one node's slot on the mesh's ESID board: the exact (SID,
// source-sequence) request the node's NIC is waiting for, valid while its
// global-order sequence is active. 16 bytes, four per cache line.
type esidEntry struct {
	seq   uint64
	sid   int32
	valid bool
}

// expects reports whether the entry awaits exactly the (sid, seq) request.
func (e *esidEntry) expects(sid int32, seq uint64) bool {
	return e.valid && e.sid == sid && e.seq == seq
}

// NewMesh builds the mesh described by cfg. Routers, links and terminals
// are value slices, and every router's and terminal's tables, VC rings and
// credit slices are pieces of one slab per kind, so the build makes the same
// dozen allocations at any mesh size.
func NewMesh(cfg Config) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := cfg.Nodes()
	channels := (cfg.Width-1)*cfg.Height + cfg.Width*(cfg.Height-1)
	m := &Mesh{
		cfg:     cfg,
		routers: make([]Router, nodes),
		links:   make([]Link, 2*nodes+2*channels),
		terms:   make([]*Terminal, nodes),
		board:   make([]esidEntry, nodes),
	}
	credits := slab.Make[Credit](2 * linkCredits * len(m.links))
	for i := range m.links {
		m.links[i].init(&credits)
	}
	trk := makeTrackerSlabs(cfg, nodes*int(NumPorts)+nodes)
	rs := makeRouterSlabs(cfg, nodes, &trk)
	asm := slab.Make[int](nodes * cfg.UORespVCs)
	terms := slab.Make[Terminal](nodes)
	for id := range m.routers {
		r := &m.routers[id]
		r.init(cfg, id, m.board, &rs)
		// Local ports.
		r.attach(Local, m.InjectLink(id), m.EjectLink(id))
		m.terms[id] = terms.Next()
		m.terms[id].init(m, id, &trk, &asm)
	}
	// Mesh channels: one link per direction per neighbour pair.
	ch := m.links[2*nodes:]
	for id := range m.routers {
		r := &m.routers[id]
		x, y := cfg.Coord(id)
		if x+1 < cfg.Width {
			e := &m.routers[cfg.NodeAt(x+1, y)]
			ab, ba := &ch[0], &ch[1]
			ch = ch[2:]
			r.attach(East, ba, ab)
			e.attach(West, ab, ba)
		}
		if y+1 < cfg.Height {
			s := &m.routers[cfg.NodeAt(x, y+1)]
			ab, ba := &ch[0], &ch[1]
			ch = ch[2:]
			r.attach(South, ba, ab)
			s.attach(North, ab, ba)
		}
	}
	return m, nil
}

// PublishESID records on the board the request node's NIC expects next
// (ok false: none). Each NIC writes only its own slot, in Commit, on every
// mesh it is attached to; only routers read the board, in Evaluate, for
// reserved-VC eligibility.
func (m *Mesh) PublishESID(node, sid int, seq uint64, ok bool) {
	m.board[node] = esidEntry{seq: seq, sid: int32(sid), valid: ok}
}

// ESID returns node's committed board entry (stall diagnostics).
func (m *Mesh) ESID(node int) (sid int, seq uint64, ok bool) {
	e := m.board[node]
	return int(e.sid), e.seq, e.valid
}

// Config returns the mesh's configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Register adds every router to the kernel and wires the links' wake edges:
// each link's readers are woken by writes so routers can park when quiescent.
// Links themselves are passive mailboxes, not components (see Link).
func (m *Mesh) Register(k *sim.Kernel) {
	for i := range m.routers {
		r := &m.routers[i]
		a := k.Register(r)
		for p := Port(0); p < NumPorts; p++ {
			if il := r.inLink[p]; il != nil {
				il.SetFlitWake(a)
			}
			if ol := r.outLink[p]; ol != nil {
				ol.SetCreditWake(a)
			}
		}
	}
}

// InjectLink returns the link a node's NIC sends flits on (into the router's
// local input port). Credits for the NIC flow back on the same link.
func (m *Mesh) InjectLink(node int) *Link { return &m.links[node] }

// EjectLink returns the link a node's NIC receives flits on (from the
// router's local output port).
func (m *Mesh) EjectLink(node int) *Link { return &m.links[len(m.routers)+node] }

// Terminal returns node's terminal, the attachment its NIC or endpoint
// drives the injection and ejection links through.
func (m *Mesh) Terminal(node int) *Terminal { return m.terms[node] }

// Router returns the router at the given node (for stats and tests).
func (m *Mesh) Router(node int) *Router { return &m.routers[node] }

// NextPacketID issues a unique packet ID.
func (m *Mesh) NextPacketID() uint64 {
	m.nextPktID++
	return m.nextPktID
}

// SetTracer attaches a lifecycle tracer to every router (nil disables).
func (m *Mesh) SetTracer(t *obs.Tracer) {
	for i := range m.routers {
		m.routers[i].SetTracer(t)
	}
}

// SetAuditor attaches the online auditor to every router (nil disables).
func (m *Mesh) SetAuditor(a *audit.Auditor) {
	for i := range m.routers {
		m.routers[i].SetAuditor(a)
	}
}

// BufferedFlits counts the flits currently held in router input VCs across
// the mesh — the watchdog's "packets in flight" signal. It sums the routers'
// incrementally-maintained occupancy counters, so polling it every watchdog
// or metrics interval costs O(routers) instead of a full VC-ring rescan.
func (m *Mesh) BufferedFlits() int {
	n := 0
	for i := range m.routers {
		n += m.routers[i].buffered
	}
	return n
}

// Snapshot renders the full network state for stall diagnosis: every
// occupied input VC's head flit with its age, and the credit state of the
// output port it is waiting on. The oldest buffered flit (the likeliest
// victim of the root cause) is named first as the culprit.
func (m *Mesh) Snapshot(now uint64) string {
	var b strings.Builder
	type stuck struct {
		r  *Router
		p  Port
		v  VNet
		vc int
		f  *Flit
	}
	var oldest *stuck
	total := 0
	for i := range m.routers {
		r := &m.routers[i]
		r.ForEachBufferedFlit(func(p Port, v VNet, vc int, f *Flit) {
			total++
			if !f.IsHead() {
				return
			}
			s := &stuck{r: r, p: p, v: v, vc: vc, f: f}
			if oldest == nil || f.arrival < oldest.f.arrival {
				oldest = s
			}
		})
	}
	fmt.Fprintf(&b, "mesh snapshot @cycle %d: %d flits buffered\n", now, total)
	if oldest != nil {
		fmt.Fprintf(&b, "culprit: router %d port %s %s vc %d holds %s (waiting %d cycles, pending ports %05b)\n",
			oldest.r.id, oldest.p, oldest.v, oldest.vc, oldest.f.Pkt, now-oldest.f.arrival, oldest.f.outPorts)
		for o := Port(0); o < NumPorts; o++ {
			if oldest.f.outPorts&portMask(o) == 0 {
				continue
			}
			if tr, ok := oldest.r.OutputState(o); ok {
				fmt.Fprintf(&b, "culprit wants port %s:", o)
				for i := 0; i < m.cfg.TotalVCs(oldest.f.Pkt.VNet); i++ {
					fmt.Fprintf(&b, " vc%d[credits=%d busy=%t]", i, tr.Credits(oldest.f.Pkt.VNet, i), tr.Busy(oldest.f.Pkt.VNet, i))
				}
				b.WriteByte('\n')
			}
		}
	}
	// Full per-router VC occupancy with head flits and output credit state.
	for i := range m.routers {
		r := &m.routers[i]
		headerDone := false
		r.ForEachBufferedFlit(func(p Port, v VNet, vc int, f *Flit) {
			if !headerDone {
				fmt.Fprintf(&b, "router %d:\n", r.id)
				headerDone = true
			}
			fmt.Fprintf(&b, "  in %s %s vc%d: %s seq=%d age=%d pending=%05b\n",
				p, v, vc, f.Pkt, f.Seq, now-f.arrival, f.outPorts)
		})
		if !headerDone {
			continue
		}
		for o := Port(0); o < NumPorts; o++ {
			tr, ok := r.OutputState(o)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  out %s credits:", o)
			for v := VNet(0); v < NumVNets; v++ {
				for i := 0; i < m.cfg.TotalVCs(v); i++ {
					fmt.Fprintf(&b, " %s/vc%d=%d", v, i, tr.Credits(v, i))
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Stats sums router statistics across the mesh.
func (m *Mesh) Stats() RouterStats {
	var s RouterStats
	for i := range m.routers {
		r := &m.routers[i]
		s.FlitsRouted += r.Stats.FlitsRouted
		s.Bypasses += r.Stats.Bypasses
		s.AllocStalls += r.Stats.AllocStalls
	}
	return s
}

// CheckInvariants panics with a description if any router's internal state
// violates the credit or buffer-occupancy invariants; tests call it after
// runs.
func (m *Mesh) CheckInvariants() error {
	for i := range m.routers {
		r := &m.routers[i]
		for p := Port(0); p < NumPorts; p++ {
			if r.inLink[p] == nil {
				continue
			}
			for v := VNet(0); v < NumVNets; v++ {
				for i := 0; i < m.cfg.TotalVCs(v); i++ {
					fv := r.flatVC(p, v, i)
					if int(r.qlen[fv]) > m.cfg.BufDepthFor(v) {
						return fmt.Errorf("router %d port %s %s vc %d holds %d flits (cap %d)", r.id, p, v, i, r.qlen[fv], m.cfg.BufDepthFor(v))
					}
				}
			}
			tr, _ := r.OutputState(p)
			for v := VNet(0); v < NumVNets; v++ {
				for i := 0; i < m.cfg.TotalVCs(v); i++ {
					if c := tr.Credits(v, i); c < 0 || c > m.cfg.BufDepthFor(v) {
						return fmt.Errorf("router %d port %s %s vc %d credit %d out of range", r.id, p, v, i, c)
					}
				}
			}
		}
	}
	return nil
}
