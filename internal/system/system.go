// Package system assembles full simulated machines: the SCORPIO 36-core
// processor (ordered mesh + snoopy MOSI tiles + memory controllers) and, in
// sibling files, the directory-based and prior-ordered-network baselines the
// paper compares against. It also owns the shared run loop and result
// collection used by every experiment.
package system

import (
	"fmt"

	"scorpio/internal/coherence"
	"scorpio/internal/core"
	"scorpio/internal/mem"
	"scorpio/internal/noc"
	"scorpio/internal/sim"
	"scorpio/internal/slab"
	"scorpio/internal/stats"
	"scorpio/internal/tile"
	"scorpio/internal/trace"
)

// Options configures a SCORPIO system build.
type Options struct {
	Workload
	// Core is the ordered-network configuration (mesh size, VCs, window).
	Core core.Config
	// L2 is the per-tile controller configuration.
	L2 coherence.Config
	// Mem is the memory-controller configuration.
	Mem mem.Config
	// MCNodes lists the memory-controller attach nodes; nil selects the four
	// corner-adjacent edge routers like the chip, and an empty list is an
	// error.
	MCNodes []int
	// UseL1 interposes the tile layer (split write-through L1s behind the
	// AHB single-transaction rule) between the injectors and the L2s,
	// matching the fabricated tile rather than the paper's trace-driven RTL
	// methodology (which injected straight into the L2's AHB interface).
	UseL1 bool
}

// fill derives what follows from the mesh and the outstanding-miss limit:
// every data packet's size and the miss resources.
func (o *Options) fill() {
	o.Workload.fill()
	o.L2.DataFlits = o.Core.Net.DataPacketFlits()
	o.Mem.DataFlits = o.Core.Net.DataPacketFlits()
	o.holdMisses(&o.L2.MSHRs, &o.L2.CoreQueueDepth)
	o.Core.NIC.MaxPendingNotifs = max(o.Core.NIC.MaxPendingNotifs, o.MaxOutstanding)
}

// idStream issues the packet IDs of one issuing stream. The stream index
// occupies the high bits so streams never collide, which lets every L2 and
// memory controller draw IDs during its own Evaluate without sharing a
// counter across kernel workers. IDs are only compared for equality (the
// global-order checker), so the non-sequential values are behaviourally
// neutral. Streams sit side by side in one slice and are advanced by
// different shards; the pad gives each its own cache line.
type idStream struct {
	base, seq uint64
	_         [48]byte
}

// NextPacketID implements coherence.IDSource.
func (s *idStream) NextPacketID() uint64 {
	s.seq++
	return s.base | s.seq
}

// idStreams returns the packet-ID sources of the two controller kinds of
// nodes 0..nodes-1 (the L2 and the memory controller or home): stream i's
// IDs carry i+1 in their high bits, node n's first kind drawing from stream
// n and its second from stream nodes+n.
func idStreams(nodes int) (first, second []coherence.IDSource) {
	streams := slab.Make[idStream](2 * nodes)
	ids := make([]coherence.IDSource, 2*nodes)
	for i := range ids {
		s := streams.Next()
		s.base = uint64(i+1) << 40
		ids[i] = s
	}
	return ids[:nodes:nodes], ids[nodes:]
}

// DefaultOptions returns chip-faithful options for a benchmark.
func DefaultOptions(prof trace.Profile) Options {
	return Options{
		Workload: DefaultWorkload(prof),
		Core:     core.DefaultConfig(),
		L2:       coherence.DefaultConfig(),
		Mem:      mem.DefaultConfig(),
	}
}

// DefaultMCNodes returns the chip-like edge attach points for a w×h mesh:
// two dual-port controllers, four ports on the east and west edges.
func DefaultMCNodes(w, h int) []int {
	return []int{
		0,           // north-west
		w - 1,       // north-east
		w * (h - 1), // south-west
		w*h - 1,     // south-east
	}
}

// memMap interleaves line addresses across the MC ports.
type memMap struct {
	nodes []int
}

// mcLayout resolves the memory-controller attach nodes of a w×h mesh (nil
// selects DefaultMCNodes) into the address interleaving and a per-node flag
// marking the nodes that host a controller.
func mcLayout(nodes []int, w, h int) (memMap, []bool, error) {
	if nodes == nil {
		nodes = DefaultMCNodes(w, h)
	}
	if len(nodes) == 0 {
		return memMap{}, nil, fmt.Errorf("system: MCNodes is empty; nil selects the default memory controllers")
	}
	at := make([]bool, w*h)
	for _, n := range nodes {
		if n < 0 || n >= len(at) {
			return memMap{}, nil, fmt.Errorf("system: MC node %d out of range", n)
		}
		at[n] = true
	}
	return memMap{nodes: nodes}, at, nil
}

// HomeMC implements coherence.MemMap.
func (m memMap) HomeMC(addr uint64) int {
	return m.nodes[int(addr)%len(m.nodes)]
}

// tileAgent composes the tile's L2 controller with an optional
// memory-controller port behind one NIC.
type tileAgent struct {
	l2 *coherence.L2Controller
	mc *mem.Controller
}

// AcceptOrderedRequest implements nic.Agent: both the L2 and the MC snoop
// the ordered stream; the L2's occupancy and FID capacity gate acceptance.
func (t *tileAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool {
	if !t.l2.CanAcceptOrdered(cycle) {
		return false
	}
	if !t.l2.ProcessOrdered(p, arrive, cycle) {
		return false
	}
	if t.mc != nil {
		t.mc.ProcessOrdered(p, arrive, cycle)
	}
	return true
}

// AcceptResponse routes unordered responses to the right sub-agent.
func (t *tileAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	if coherence.Kind(p.Kind) == coherence.WBData {
		if t.mc == nil {
			panic("system: writeback data delivered to a node without a memory controller")
		}
		return t.mc.AcceptResponse(p, cycle)
	}
	return t.l2.AcceptResponse(p, cycle)
}

// Scorpio is a fully assembled SCORPIO machine.
type Scorpio struct {
	machine
	opt   Options
	Net   *core.OrderedNet
	L2s   []*coherence.L2Controller
	MCs   []*mem.Controller
	Tiles []*tile.Tile // populated when Options.UseL1 is set
}

// NewScorpio builds the machine with trace injectors attached.
func NewScorpio(opt Options) (*Scorpio, error) {
	if err := opt.Profile.Validate(); err != nil {
		return nil, err
	}
	s, err := NewScorpioBare(opt)
	if err != nil {
		return nil, err
	}
	ports := make([]trace.RequestPort, len(s.L2s))
	for node, l2 := range s.L2s {
		ports[node] = l2
		if opt.UseL1 {
			tl := tile.New(node, tile.DefaultConfig(), l2)
			s.Tiles = append(s.Tiles, tl)
			ports[node] = &tilePort{t: tl}
		}
	}
	s.inject(&s.opt.Workload, ports)
	complete := s.completer()
	for node, l2 := range s.L2s {
		inj := s.Injectors[node]
		if opt.UseL1 {
			tl := s.Tiles[node]
			s.Kernel.RegisterGroup(node, tl)
			tl.OnComplete = func(c tile.Completion) {
				inj.OnComplete(c.Addr, c.Write, c.Issue, c.Done, c.L1Hit, false, nil)
			}
		} else {
			l2.OnComplete = complete
		}
		s.Kernel.RegisterGroup(node, inj)
	}
	s.attribute()
	return s, nil
}

// tilePort adapts the tile's data AHB port to the injector interface.
type tilePort struct {
	t *tile.Tile
}

// CoreRequest implements trace.RequestPort.
func (p *tilePort) CoreRequest(addr uint64, write bool, cycle uint64) bool {
	return p.t.Access(tile.Data, addr, write, 0, cycle)
}

// NewScorpioBare builds the machine without workload drivers: tiles, memory
// controllers and networks only. The consistency-verification suite and
// custom drivers attach through L2s[n].CoreAccess / OnComplete. The L2s,
// the memory controllers, the tile agents and the ID streams are one slice
// per kind.
func NewScorpioBare(opt Options) (*Scorpio, error) {
	opt.fill()
	k := sim.NewKernel()
	net, err := core.NewOrderedNet(opt.Core, k)
	if err != nil {
		return nil, err
	}
	mm, mcAt, err := mcLayout(opt.MCNodes, opt.Core.Net.Width, opt.Core.Net.Height)
	if err != nil {
		return nil, err
	}
	nodes := net.Nodes()
	s := &Scorpio{machine: machine{Kernel: k, label: "SCORPIO/" + opt.Profile.Name, order: net.OrderCheck()}, opt: opt, Net: net}
	pool := new(coherence.Pool[coherence.RespInfo])
	l2IDs, mcIDs := idStreams(nodes)
	ports := make([]coherence.NetPort, nodes)
	var mcNodes []int
	var mcPorts []coherence.NetPort
	var mcStreams []coherence.IDSource
	for node := range ports {
		n := net.NIC(node)
		n.SetRecycler(pool)
		ports[node] = n
		if mcAt[node] {
			mcNodes, mcPorts, mcStreams = append(mcNodes, node), append(mcPorts, n), append(mcStreams, mcIDs[node])
		}
	}
	l2s := coherence.NewL2s(opt.L2, ports, l2IDs, mm, pool)
	mcs := mem.NewControllers(mcNodes, opt.Mem, mcPorts, mcStreams, mm, pool)
	agents := make([]tileAgent, nodes)
	s.L2s = make([]*coherence.L2Controller, nodes)
	for node := range agents {
		l2, agent := &l2s[node], &agents[node]
		s.L2s[node], agent.l2 = l2, l2
		if mcAt[node] {
			mc := &mcs[len(s.MCs)]
			agent.mc = mc
			s.MCs = append(s.MCs, mc)
			k.RegisterGroup(node, mc)
		}
		net.AttachAgent(node, agent)
		k.RegisterGroup(node, l2)
	}
	k.SetWorkers(opt.Workers)
	if s.Obs, err = buildObs(opt.Obs, &s.machine, net.Mesh(), s); err != nil {
		return nil, err
	}
	hook(s.Obs, net)
	hook(s.Obs, s.L2s...)
	return s, nil
}

// read, inflight and snapshot implement probe.
func (s *Scorpio) read(c *reading) {
	for node := 0; node < s.Net.Nodes(); node++ {
		st := &s.Net.NIC(node).Stats
		c.injected += st.InjectedRequests + st.InjectedResponses
		c.ejected += st.DeliveredRequests + st.DeliveredResponses
	}
	c.net = s.Net.NetStats()
	c.notifWindows = s.Net.Notif().WindowsDelivered
	c.buffered = s.Net.BufferedFlits()
	c.outstanding = outstanding(s.L2s)
}

func (s *Scorpio) inflight() bool { return s.Net.BufferedFlits() > 0 || s.Net.HasPendingWork() }

func (s *Scorpio) snapshot(now uint64) string { return s.Net.Snapshot(now) + missReport(s.L2s) }

// Run executes until all work completes or the cycle limit is reached and
// returns the collected results. A watchdog stall aborts the run with the
// full network snapshot in the error; a run whose nodes disagree on the
// global order fails its final check.
func (s *Scorpio) Run(limit uint64) (Results, error) {
	r, err := s.run(limit)
	if err != nil {
		return r, err
	}
	r.Protocol, r.Benchmark = "SCORPIO", s.opt.Profile.Name
	r.addSnoopyL2s(s.L2s)
	ns := s.Net.NetStats()
	r.FlitsRouted, r.Bypasses = ns.FlitsRouted, ns.Bypasses
	for node := 0; node < s.Net.Nodes(); node++ {
		st := &s.Net.NIC(node).Stats
		r.OrderingLat.Merge(st.OrderingLatency)
		r.ReqNetworkLat.Merge(st.NetworkLatency)
	}
	return r, nil
}

// Results aggregates one run's outcome; it is shared by every protocol's
// system so experiments can compare like for like.
type Results struct {
	Protocol  string
	Benchmark string
	Cycles    uint64
	LastDone  uint64
	Completed uint64

	Service stats.Mean // L2 service latency over all accesses
	HitLat  stats.Mean
	MissLat stats.Mean

	CacheServed stats.Breakdown // misses served by other caches (Fig 6b)
	MemServed   stats.Breakdown // misses served by directory/memory (Fig 6c)

	L2Hits         uint64
	L2Misses       uint64
	SnoopsSeen     uint64
	SnoopsFiltered uint64
	Writebacks     uint64
	FIDDeferrals   uint64

	// Directory baselines only.
	DirTransactions uint64
	DirCacheHits    uint64
	DirCacheMisses  uint64

	FlitsRouted   uint64
	Bypasses      uint64
	OrderingLat   stats.Mean
	ReqNetworkLat stats.Mean

	// ServiceHist is the full service-latency distribution (percentiles);
	// merged across cores. Nil for machines without injectors.
	ServiceHist *stats.Histogram

	// Obs carries the run's observability artifacts (trace ring, metrics
	// series, watchdog) when enabled; nil otherwise.
	Obs *Observability
}

// Runtime returns the cycle count used for normalized-runtime comparisons.
func (r Results) Runtime() float64 {
	if r.LastDone > 0 {
		return float64(r.LastDone)
	}
	return float64(r.Cycles)
}

// ServedByCacheFrac returns the fraction of misses served by other caches.
func (r Results) ServedByCacheFrac() float64 {
	total := r.CacheServed.Count() + r.MemServed.Count()
	if total == 0 {
		return 0
	}
	return float64(r.CacheServed.Count()) / float64(total)
}
