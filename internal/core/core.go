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
	nics   []nic.NIC
	check  *audit.OrderCheck
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
	meshes := make([]*noc.Mesh, k2)
	for i := range meshes {
		mesh, err := noc.NewMesh(cfg.Net)
		if err != nil {
			return nil, err
		}
		meshes[i] = mesh
	}
	nnet, err := notif.NewNetwork(cfg.Notif)
	if err != nil {
		return nil, err
	}
	// Every NIC reads each notification window in the same cycle and holds
	// at most TrackerDepth unconsumed windows besides the one it is
	// expanding (the tracker panics on overflow), and a window announces at
	// most MaxPerWindow requests per node. So no node trails another by
	// more than TrackerDepth+1 windows' worth of positions: 612 on the 6×6
	// chip, 4,352 at 16×16.
	nodes := cfg.Net.Nodes()
	window := (cfg.NIC.TrackerDepth + 1) * nodes * cfg.Notif.MaxPerWindow()
	on := &OrderedNet{cfg: cfg, meshes: meshes, nnet: nnet, check: audit.NewOrderCheck(nodes, window)}
	on.nics = nic.NewNICs(cfg.NIC, meshes, nnet)
	for node := range on.nics {
		n := &on.nics[node]
		n.SetOrderCheck(on.check)
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
	for i := range on.nics {
		// NICs holding a pending offer wake the OR-mesh for the sampling
		// window start.
		on.nics[i].SetNotifActivity(nnetAct)
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
	for i := range o.nics {
		o.nics[i].SetTracer(t)
	}
	o.nnet.SetTracer(t)
}

// SetAuditor attaches the online auditor to every router, NIC and the
// notification network (nil disables auditing everywhere).
func (o *OrderedNet) SetAuditor(a *audit.Auditor) {
	for _, m := range o.meshes {
		m.SetAuditor(a)
	}
	for i := range o.nics {
		o.nics[i].SetAuditor(a)
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
	for i := range o.nics {
		if o.nics[i].HasPendingWork() {
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
	for i := range o.nics {
		if n := &o.nics[i]; n.HasPendingWork() {
			s += n.OrderingSnapshot() + "\n"
		}
	}
	return s
}

// NIC returns the node's network interface controller.
func (o *OrderedNet) NIC(node int) *nic.NIC { return &o.nics[node] }

// Nodes returns the number of nodes.
func (o *OrderedNet) Nodes() int { return o.cfg.Net.Nodes() }

// AttachAgent attaches a node's agent to its NIC.
func (o *OrderedNet) AttachAgent(node int, a nic.Agent) { o.nics[node].SetAgent(a) }

// NewPacketID issues a unique packet ID across all attached networks.
func (o *OrderedNet) NewPacketID() uint64 {
	o.pktID++
	return o.pktID
}

// OrderCheck returns the global-order check every NIC reports its accepted
// ordered requests to.
func (o *OrderedNet) OrderCheck() *audit.OrderCheck { return o.check }

// VerifyGlobalOrder returns the check's first failure: two nodes that
// accepted different ordered requests at the same position, or a node that
// fell further behind than the check's window. Nil while they agree.
func (o *OrderedNet) VerifyGlobalOrder() error { return o.check.Err() }

// OrderedDeliveries returns how many ordered requests the slowest node has
// observed.
func (o *OrderedNet) OrderedDeliveries() uint64 {
	_, slowest := o.check.Positions()
	return slowest
}
