package system

import (
	"fmt"

	"scorpio/internal/coherence"
	"scorpio/internal/directory"
	"scorpio/internal/nic"
	"scorpio/internal/noc"
	"scorpio/internal/sim"
	"scorpio/internal/trace"
)

// DirectoryOptions configures an LPD-D or HT-D baseline machine.
type DirectoryOptions struct {
	Workload
	Variant directory.Variant
	// Net is the main-network configuration — the identical mesh SCORPIO
	// uses, minus ordering (Section 5.1).
	Net noc.Config
	// L2 and Home parameterise the controllers; a zero value selects the
	// variant's defaults. The builder sizes both for Net and Variant.
	// DefaultDirectoryOptions leaves Home zero, so a variant switched after
	// it gets that variant's directory entries.
	L2   directory.L2Config
	Home directory.HomeConfig
	// DirCacheBytes overrides the machine-wide directory cache budget when
	// non-zero (the paper's comparisons equalise it across protocols).
	DirCacheBytes int
}

// DefaultDirectoryOptions mirrors DefaultOptions for a directory baseline.
func DefaultDirectoryOptions(v directory.Variant, prof trace.Profile) DirectoryOptions {
	net := noc.DefaultConfig()
	return DirectoryOptions{
		Workload: DefaultWorkload(prof),
		Variant:  v,
		Net:      net,
		L2:       directory.DefaultL2Config(net.Nodes(), v),
	}
}

// fill derives what follows from the mesh, the variant and the
// outstanding-miss limit: the controllers' node count, variant and data
// packet size, the directory budget and the miss resources.
func (o *DirectoryOptions) fill() {
	o.Workload.fill()
	nodes, flits := o.Net.Nodes(), o.Net.DataPacketFlits()
	if o.L2 == (directory.L2Config{}) {
		o.L2 = directory.DefaultL2Config(nodes, o.Variant)
	}
	if o.Home == (directory.HomeConfig{}) {
		o.Home = directory.LPDConfig(nodes)
		if o.Variant == directory.HT {
			o.Home = directory.HTConfig(nodes)
		}
	}
	o.L2.Nodes, o.L2.Variant, o.L2.DataFlits = nodes, o.Variant, flits
	o.Home.Nodes, o.Home.Variant, o.Home.DataFlits = nodes, o.Variant, flits
	if o.DirCacheBytes != 0 {
		o.Home.TotalDirCacheBytes = o.DirCacheBytes
	}
	o.holdMisses(&o.L2.MSHRs, &o.L2.CoreQueueDepth)
}

// dirTileAgent routes packets to the node's cache controller and directory
// slice.
type dirTileAgent struct {
	l2   *directory.L2
	home *directory.Home
}

// AcceptOrderedRequest handles the request class: unicast requests to this
// home and HT probe broadcasts.
func (t *dirTileAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool {
	switch directory.Kind(p.Kind) {
	case directory.ReqGetS, directory.ReqGetX, directory.ReqPutM:
		return t.home.Request(p, arrive, cycle)
	case directory.ProbeS, directory.ProbeX:
		return t.l2.HandleProbe(p, cycle)
	default:
		panic(fmt.Sprintf("system: unexpected request-class kind %d", p.Kind))
	}
}

// AcceptResponse handles the response class.
func (t *dirTileAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	switch directory.Kind(p.Kind) {
	case directory.FwdGetS, directory.FwdGetX:
		t.l2.HandleFwd(p, cycle)
	case directory.Inv:
		t.l2.HandleInv(p, cycle)
	case directory.DataD, directory.InvAck, directory.WBAck:
		t.l2.HandleResponse(p, cycle)
	case directory.WBData:
		t.home.WBDataArrived(p, cycle)
	case directory.Done:
		t.home.DoneArrived(p, cycle)
	default:
		panic(fmt.Sprintf("system: unexpected response-class kind %d", p.Kind))
	}
	return true
}

// Directory is a fully assembled LPD-D or HT-D machine.
type Directory struct {
	machine
	opt   DirectoryOptions
	Mesh  *noc.Mesh
	NICs  []*nic.NIC
	L2s   []*directory.L2
	Homes []*directory.Home
}

// NewDirectory builds the baseline machine. Its NICs, L2s, homes, tile
// agents, injectors and ID streams are one slice per kind.
func NewDirectory(opt DirectoryOptions) (*Directory, error) {
	if err := opt.Profile.Validate(); err != nil {
		return nil, err
	}
	opt.fill()
	mesh, err := noc.NewMesh(opt.Net)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	d := &Directory{machine: machine{Kernel: k, label: opt.Variant.String() + "/" + opt.Profile.Name}, opt: opt, Mesh: mesh}
	nodes := opt.Net.Nodes()
	pool := new(coherence.Pool[directory.Info])
	nics := nic.NewNICs(nic.UnorderedConfig(), []*noc.Mesh{mesh}, nil)
	ports := make([]coherence.NetPort, nodes)
	d.NICs = make([]*nic.NIC, nodes)
	for node := range nics {
		n := &nics[node]
		n.SetRecycler(pool)
		d.NICs[node], ports[node] = n, n
	}
	l2IDs, homeIDs := idStreams(nodes)
	l2s := directory.NewL2s(opt.L2, ports, l2IDs, pool)
	homes := directory.NewHomes(opt.Home, ports, homeIDs, pool)
	reqPorts := make([]trace.RequestPort, nodes)
	d.L2s = make([]*directory.L2, nodes)
	d.Homes = make([]*directory.Home, nodes)
	for node := range l2s {
		d.L2s[node], d.Homes[node], reqPorts[node] = &l2s[node], &homes[node], &l2s[node]
	}
	d.inject(&opt.Workload, reqPorts)
	complete := d.completer()
	agents := make([]dirTileAgent, nodes)
	for node, n := range d.NICs {
		l2, home := d.L2s[node], d.Homes[node]
		home.LocalProbe = l2.HandleProbe
		agents[node] = dirTileAgent{l2: l2, home: home}
		n.SetAgent(&agents[node])
		// One scheduling unit per node: the NIC's deliveries call straight
		// into the L2 and home slice, and the injector into the L2. The
		// unit's order (injector, L2, home, NIC) is part of the model.
		l2.OnComplete = complete
		k.RegisterGroup(node, d.Injectors[node])
		act := k.RegisterGroup(node, l2)
		k.RegisterGroup(node, home)
		k.RegisterGroup(node, n)
		// The node's unit is woken by its link traffic.
		n.BindActivity(act)
	}
	mesh.Register(k)
	k.SetWorkers(opt.Workers)
	if d.Obs, err = buildObs(opt.Obs, &d.machine, mesh, d); err != nil {
		return nil, err
	}
	// The auditor covers delivery sanity only: flit dedup/coverage in the
	// routers and duplicate arrivals / sink accounting in the NICs. The L2s
	// carry the shadow hook, but its stale-sharer rule is qualified by
	// global-order commit positions, which directory NICs never advance.
	hook(d.Obs, mesh)
	hook(d.Obs, d.NICs...)
	d.attribute()
	return d, nil
}

// read, inflight and snapshot implement probe.
func (d *Directory) read(c *reading) {
	for _, n := range d.NICs {
		c.injected += n.Stats.InjectedRequests + n.Stats.InjectedResponses
		c.ejected += n.Stats.DeliveredRequests + n.Stats.DeliveredResponses
	}
	c.net = d.Mesh.Stats()
	c.buffered = d.Mesh.BufferedFlits()
	c.outstanding = outstanding(d.L2s)
}

func (d *Directory) inflight() bool { return meshInflight(d.Mesh, d.NICs) }

func (d *Directory) snapshot(now uint64) string {
	return meshSnapshot(d.Mesh, d.NICs, now) + missReport(d.L2s)
}

// Run executes to completion and collects results. A watchdog stall aborts
// the run with the full network snapshot in the error.
func (d *Directory) Run(limit uint64) (Results, error) {
	r, err := d.run(limit)
	if err != nil {
		return r, err
	}
	r.Protocol, r.Benchmark = d.opt.Variant.String(), d.opt.Profile.Name
	for _, l2 := range d.L2s {
		r.L2Hits += l2.Stats.Hits
		r.L2Misses += l2.Stats.Misses
		r.Writebacks += l2.Stats.Writebacks
	}
	for _, h := range d.Homes {
		r.DirTransactions += h.Stats.Transactions
		r.DirCacheMisses += h.Stats.DirCacheMiss
		r.DirCacheHits += h.Stats.DirCacheHits
	}
	ns := d.Mesh.Stats()
	r.FlitsRouted, r.Bypasses = ns.FlitsRouted, ns.Bypasses
	return r, nil
}
