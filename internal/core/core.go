// Package core assembles SCORPIO's primary contribution: a globally ordered
// mesh network built from an unordered main network (package noc), a
// fixed-latency bufferless notification network (package notif), and one
// network interface controller per node (package nic) that turns merged
// notification vectors into a consistent global delivery order.
//
// The OrderedNet is protocol-agnostic: any agent that implements nic.Agent
// (an L2 cache controller, a memory controller, a traffic generator) can be
// attached to a node and will observe every globally ordered request in
// exactly the same order as every other node.
package core

import (
	"fmt"

	"scorpio/internal/nic"
	"scorpio/internal/noc"
	"scorpio/internal/notif"
	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/sim"
)

// Config aggregates the parameters of the three hardware layers.
type Config struct {
	Net   noc.Config
	Notif notif.Config
	NIC   nic.Config
	// MainNetworks replicates the main mesh (Section 5.3's throughput
	// extension: "multiple main networks ... would not affect the
	// correctness because we decouple message delivery from ordering").
	// 0 or 1 selects the chip's single mesh.
	MainNetworks int
}

// DefaultConfig returns the fabricated 36-core chip's configuration
// (Table 1 of the paper).
func DefaultConfig() Config {
	net := noc.DefaultConfig()
	return Config{
		Net:   net,
		Notif: notif.Config{Width: net.Width, Height: net.Height, BitsPerCore: 1},
		NIC:   nic.DefaultConfig(),
	}
}

// WithMeshSize returns a copy of the configuration resized to a w×h mesh.
func (c Config) WithMeshSize(w, h int) Config {
	c.Net.Width, c.Net.Height = w, h
	c.Notif.Width, c.Notif.Height = w, h
	return c
}

// Validate checks cross-layer consistency.
func (c Config) Validate() error {
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if err := c.Notif.Validate(); err != nil {
		return err
	}
	if c.Net.Width != c.Notif.Width || c.Net.Height != c.Notif.Height {
		return fmt.Errorf("core: main network is %dx%d but notification network is %dx%d",
			c.Net.Width, c.Net.Height, c.Notif.Width, c.Notif.Height)
	}
	return nil
}

// OrderedNet is the assembled ordered interconnect.
type OrderedNet struct {
	cfg    Config
	meshes []*noc.Mesh
	nnet   *notif.Network
	nics   []*nic.NIC
	check  *orderChecker
	pktID  uint64
}

// NewOrderedNet builds the ordered network and registers every component on
// the kernel. Agents are attached afterwards with AttachAgent.
func NewOrderedNet(cfg Config, k *sim.Kernel) (*OrderedNet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k2 := cfg.MainNetworks
	if k2 < 1 {
		k2 = 1
	}
	var meshes []*noc.Mesh
	for i := 0; i < k2; i++ {
		mesh, err := noc.NewMesh(cfg.Net)
		if err != nil {
			return nil, err
		}
		meshes = append(meshes, mesh)
	}
	nnet, err := notif.NewNetwork(cfg.Notif)
	if err != nil {
		return nil, err
	}
	on := &OrderedNet{cfg: cfg, meshes: meshes, nnet: nnet}
	on.check = newOrderChecker(cfg.Net.Nodes())
	for node := 0; node < cfg.Net.Nodes(); node++ {
		n := nic.New(node, cfg.NIC, meshes[0], nnet, nil)
		for _, extra := range meshes[1:] {
			n.AddMesh(extra)
		}
		on.nics = append(on.nics, n)
		// The NIC shares a scheduling unit with the node's agents (L2,
		// memory controller, injector): a delivery calls straight into
		// them, so the kernel must never split the node across workers.
		act := k.RegisterGroup(node, n)
		// The node's unit is woken by its link traffic and by notification
		// deliveries.
		n.BindActivity(act)
		nnet.SetSourceActivity(node, act)
	}
	for _, mesh := range meshes {
		mesh.Register(k)
	}
	nnetAct := k.Register(nnet)
	for _, n := range on.nics {
		// NICs holding a pending offer wake the OR-mesh for the sampling
		// window start.
		n.SetNotifActivity(nnetAct)
	}
	return on, nil
}

// Config returns the network's configuration.
func (o *OrderedNet) Config() Config { return o.cfg }

// Mesh exposes the first main network (tests, attachment points).
func (o *OrderedNet) Mesh() *noc.Mesh { return o.meshes[0] }

// Meshes exposes every attached main network.
func (o *OrderedNet) Meshes() []*noc.Mesh { return o.meshes }

// NetStats aggregates router statistics across all main networks.
func (o *OrderedNet) NetStats() noc.RouterStats {
	var total noc.RouterStats
	for _, m := range o.meshes {
		s := m.Stats()
		total.FlitsRouted += s.FlitsRouted
		total.Bypasses += s.Bypasses
		total.AllocStalls += s.AllocStalls
	}
	return total
}

// Notif exposes the notification network.
func (o *OrderedNet) Notif() *notif.Network { return o.nnet }

// SetTracer attaches a lifecycle tracer to every router, NIC and the
// notification network (nil disables tracing everywhere).
func (o *OrderedNet) SetTracer(t *obs.Tracer) {
	for _, m := range o.meshes {
		m.SetTracer(t)
	}
	for _, n := range o.nics {
		n.SetTracer(t)
	}
	o.nnet.SetTracer(t)
}

// SetAuditor attaches the online auditor to every router, NIC and the
// notification network (nil disables auditing everywhere).
func (o *OrderedNet) SetAuditor(a *audit.Auditor) {
	for _, m := range o.meshes {
		m.SetAuditor(a)
	}
	for _, n := range o.nics {
		n.SetAuditor(a)
	}
	o.nnet.SetAuditor(a)
}

// BufferedFlits counts flits buffered in routers across all main networks.
func (o *OrderedNet) BufferedFlits() int {
	n := 0
	for _, m := range o.meshes {
		n += m.BufferedFlits()
	}
	return n
}

// HasPendingWork reports whether any NIC still holds undelivered packets.
func (o *OrderedNet) HasPendingWork() bool {
	for _, n := range o.nics {
		if n.HasPendingWork() {
			return true
		}
	}
	return false
}

// Snapshot renders the full network state (mesh occupancy plus every NIC's
// ordering state) for watchdog stall dumps.
func (o *OrderedNet) Snapshot(now uint64) string {
	s := ""
	for i, m := range o.meshes {
		if len(o.meshes) > 1 {
			s += fmt.Sprintf("main network %d:\n", i)
		}
		s += m.Snapshot(now)
	}
	for _, n := range o.nics {
		if n.HasPendingWork() {
			s += n.OrderingSnapshot() + "\n"
		}
	}
	return s
}

// NIC returns the node's network interface controller.
func (o *OrderedNet) NIC(node int) *nic.NIC { return o.nics[node] }

// Nodes returns the number of nodes.
func (o *OrderedNet) Nodes() int { return o.cfg.Net.Nodes() }

// AttachAgent wires a node's agent behind an order-recording shim so the
// global-order invariant can be verified at any time.
func (o *OrderedNet) AttachAgent(node int, a nic.Agent) {
	o.nics[node].SetAgent(&checkedAgent{inner: a, node: node, check: o.check})
}

// NewPacketID issues a unique packet ID across all attached networks.
func (o *OrderedNet) NewPacketID() uint64 {
	o.pktID++
	return o.pktID
}

// VerifyGlobalOrder returns an error if any two nodes observed different
// ordered-request sequences (compared over the shared prefix; nodes progress
// at different speeds).
func (o *OrderedNet) VerifyGlobalOrder() error { return o.check.verify() }

// OrderedDeliveries returns how many ordered requests the slowest node has
// observed.
func (o *OrderedNet) OrderedDeliveries() uint64 {
	min := ^uint64(0)
	for _, seq := range o.check.perNode {
		if uint64(len(seq)) < min {
			min = uint64(len(seq))
		}
	}
	if min == ^uint64(0) {
		return 0
	}
	return min
}

// orderChecker records each node's observed ordered sequence (packet IDs).
type orderChecker struct {
	perNode [][]uint64
}

func newOrderChecker(nodes int) *orderChecker {
	return &orderChecker{perNode: make([][]uint64, nodes)}
}

func (c *orderChecker) record(node int, id uint64) {
	c.perNode[node] = append(c.perNode[node], id)
}

func (c *orderChecker) verify() error {
	var ref []uint64
	refNode := -1
	for node, seq := range c.perNode {
		if len(seq) > len(ref) {
			ref = seq
			refNode = node
		}
	}
	for node, seq := range c.perNode {
		for i, id := range seq {
			if id != ref[i] {
				return fmt.Errorf("core: global order diverged at position %d: node %d saw packet %d, node %d saw packet %d",
					i, node, id, refNode, ref[i])
			}
		}
	}
	return nil
}

// checkedAgent forwards deliveries to the real agent, recording accepted
// ordered requests for invariant verification.
type checkedAgent struct {
	inner nic.Agent
	node  int
	check *orderChecker
}

func (c *checkedAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool {
	if !c.inner.AcceptOrderedRequest(p, arrive, cycle) {
		return false
	}
	c.check.record(c.node, p.ID)
	return true
}

func (c *checkedAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	return c.inner.AcceptResponse(p, cycle)
}
