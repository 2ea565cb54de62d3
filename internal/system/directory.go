package system

import (
	"fmt"

	"scorpio/internal/coherence"
	"scorpio/internal/directory"
	"scorpio/internal/nic"
	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/sim"
	"scorpio/internal/trace"
)

// DirectoryOptions configures an LPD-D or HT-D baseline machine.
type DirectoryOptions struct {
	Variant directory.Variant
	// Net is the main-network configuration — the identical mesh SCORPIO
	// uses, minus ordering (Section 5.1).
	Net noc.Config
	// L2 and Home parameterise the controllers; zero values select the
	// chip-faithful defaults for the mesh size.
	L2   directory.L2Config
	Home directory.HomeConfig
	// DirCacheBytes overrides the machine-wide directory cache budget when
	// non-zero (the paper's comparisons equalise it across protocols).
	DirCacheBytes int
	// Workload parameters mirror Options.
	Profile        trace.Profile
	WorkPerCore    uint64
	WarmupPerCore  uint64
	MaxOutstanding int
	Seed           uint64
	// Workers mirrors Options.Workers (0 or 1 = serial kernel).
	Workers int
	// DisableIdleSkip forces every component to step every cycle (mirrors
	// Options.DisableIdleSkip; results are bit-identical either way).
	DisableIdleSkip bool
	// Obs enables tracing, metrics sampling and the watchdog (nil = off).
	Obs *obs.Options
}

// DefaultDirectoryOptions mirrors DefaultOptions for a directory baseline.
func DefaultDirectoryOptions(v directory.Variant, prof trace.Profile) DirectoryOptions {
	net := noc.DefaultConfig()
	opt := DirectoryOptions{
		Variant:        v,
		Net:            net,
		Profile:        prof,
		WorkPerCore:    400,
		WarmupPerCore:  300,
		MaxOutstanding: 2,
		Seed:           1,
	}
	opt.fillDefaults()
	return opt
}

func (o *DirectoryOptions) fillDefaults() {
	nodes := o.Net.Nodes()
	if o.L2.Nodes == 0 {
		o.L2 = directory.DefaultL2Config(nodes, o.Variant)
		o.L2.DataFlits = o.Net.DataPacketFlits()
	}
	if o.Home.Nodes == 0 {
		if o.Variant == directory.LPD {
			o.Home = directory.LPDConfig(nodes)
		} else {
			o.Home = directory.HTConfig(nodes)
		}
		o.Home.DataFlits = o.Net.DataPacketFlits()
	}
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 2
	}
	if o.DirCacheBytes != 0 {
		o.Home.TotalDirCacheBytes = o.DirCacheBytes
	}
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

// NewDirectory builds the baseline machine.
func NewDirectory(opt DirectoryOptions) (*Directory, error) {
	if err := opt.Profile.Validate(); err != nil {
		return nil, err
	}
	opt.fillDefaults()
	mesh, err := noc.NewMesh(opt.Net)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	d := &Directory{machine: machine{Kernel: k, label: opt.Variant.String() + "/" + opt.Profile.Name}, opt: opt, Mesh: mesh}
	nodes := opt.Net.Nodes()
	pools := make([]coherence.Pool[directory.Info], nodes)
	for node := 0; node < nodes; node++ {
		n, pool := nic.New(node, nic.UnorderedConfig(), mesh, nil, nil), &pools[node]
		n.SetRecycler(pool)
		d.NICs = append(d.NICs, n)
		l2 := directory.NewL2(node, opt.L2, n, packetIDStream(node), pool)
		home := directory.NewHome(node, opt.Home, n, packetIDStream(nodes+node), pool)
		home.LocalProbe = l2.HandleProbe
		n.SetAgent(&dirTileAgent{l2: l2, home: home})
		d.L2s = append(d.L2s, l2)
		d.Homes = append(d.Homes, home)
		inj := trace.NewInjector(node, opt.Profile, opt.Seed, l2, opt.MaxOutstanding, opt.WarmupPerCore, opt.WorkPerCore)
		d.Injectors = append(d.Injectors, inj)
		l2.OnComplete = func(c coherence.Completion) {
			inj.OnComplete(c.Addr, c.Write, c.Issue, c.Done, c.Hit, c.ServedByCache, &c.Breakdown)
		}
		// One scheduling unit per node: the NIC's deliveries call straight
		// into the L2 and home slice, and the injector into the L2.
		act := k.RegisterGroup(node, inj)
		k.RegisterGroup(node, l2)
		k.RegisterGroup(node, home)
		k.RegisterGroup(node, n)
		// The node's unit is woken by its link traffic.
		n.BindActivity(act)
	}
	mesh.Register(k)
	k.SetWorkers(opt.Workers)
	k.SetIdleSkip(!opt.DisableIdleSkip)
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
	r, err := d.run(limit, nil)
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
