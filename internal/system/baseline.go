package system

import (
	"fmt"

	"scorpio/internal/baseline"
	"scorpio/internal/coherence"
	"scorpio/internal/mem"
	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/sim"
	"scorpio/internal/trace"
)

// OrderingScheme selects the Figure 7 baseline.
type OrderingScheme int

const (
	// SchemeTokenB is TokenB: zero-cost protocol-level ordering.
	SchemeTokenB OrderingScheme = iota
	// SchemeINSO is In-Network Snoop Ordering with an expiration window.
	SchemeINSO
)

// String names the scheme as the paper's Figure 7 does.
func (s OrderingScheme) String() string {
	if s == SchemeTokenB {
		return "TokenB"
	}
	return "INSO"
}

// BaselineOptions configures a TokenB or INSO machine (Figure 7 runs these
// at 16 cores with the same snoopy protocol and mesh as SCORPIO).
type BaselineOptions struct {
	Scheme OrderingScheme
	// ExpiryWindow is INSO's expiration window in cycles (20/40/80).
	ExpiryWindow   int
	Net            noc.Config
	L2             coherence.Config
	Mem            mem.Config
	Profile        trace.Profile
	WorkPerCore    uint64
	WarmupPerCore  uint64
	MaxOutstanding int
	Seed           uint64
	MCNodes        []int
	// DisableIdleSkip forces every component to step every cycle (results
	// are bit-identical either way).
	DisableIdleSkip bool
	// Obs enables tracing, metrics sampling and the watchdog (nil = off).
	Obs *obs.Options
}

// DefaultBaselineOptions mirrors the paper's 16-core Figure 7 setup.
func DefaultBaselineOptions(scheme OrderingScheme, prof trace.Profile) BaselineOptions {
	net := noc.DefaultConfig()
	net.Width, net.Height = 4, 4
	l2 := coherence.DefaultConfig()
	l2.DataFlits = net.DataPacketFlits()
	return BaselineOptions{
		Scheme:         scheme,
		ExpiryWindow:   20,
		Net:            net,
		L2:             l2,
		Mem:            mem.DefaultConfig(),
		Profile:        prof,
		WorkPerCore:    400,
		WarmupPerCore:  300,
		MaxOutstanding: 2,
		Seed:           1,
	}
}

// Baseline is an assembled TokenB or INSO machine.
type Baseline struct {
	machine
	opt       BaselineOptions
	Mesh      *noc.Mesh
	Endpoints []*baseline.Endpoint
	L2s       []*coherence.L2Controller
	INSO      *baseline.INSO // nil for TokenB
}

// NewBaseline builds the machine. Baseline machines always run on the serial
// kernel: both orderers hand out global sequence numbers from a shared
// counter during Endpoint.Commit, so their results depend on commit order and
// cannot be sharded across workers without changing behaviour.
func NewBaseline(opt BaselineOptions) (*Baseline, error) {
	if err := opt.Profile.Validate(); err != nil {
		return nil, err
	}
	if opt.MaxOutstanding <= 0 {
		opt.MaxOutstanding = 2
	}
	mesh, err := noc.NewMesh(opt.Net)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	b := &Baseline{machine: machine{Kernel: k, label: opt.Scheme.String() + "/" + opt.Profile.Name}, opt: opt, Mesh: mesh}
	var orderer baseline.Orderer
	switch opt.Scheme {
	case SchemeTokenB:
		tb := baseline.NewTokenB()
		orderer = tb
		k.Register(tb)
	case SchemeINSO:
		if opt.ExpiryWindow <= 0 {
			return nil, fmt.Errorf("system: INSO needs a positive expiry window")
		}
		ins := baseline.NewINSO(opt.Net.Nodes(), opt.ExpiryWindow, opt.Net.Width+opt.Net.Height)
		orderer = ins
		b.INSO = ins
		ins.BindActivity(k.Register(ins))
	}
	mcNodes := opt.MCNodes
	if mcNodes == nil {
		mcNodes = DefaultMCNodes(opt.Net.Width, opt.Net.Height)
	}
	mm := memMap{nodes: mcNodes}
	mcAt := map[int]bool{}
	for _, n := range mcNodes {
		mcAt[n] = true
	}
	pools := make([]coherence.Pool[coherence.RespInfo], opt.Net.Nodes())
	for node := range pools {
		ep, pool := baseline.NewEndpoint(node, mesh, orderer, nil), &pools[node]
		if b.INSO != nil {
			ep.SetExpirySource(b.INSO)
		}
		ep.SetRecycler(pool)
		b.Endpoints = append(b.Endpoints, ep)
		l2 := coherence.NewL2(node, opt.L2, ep, mesh.NextPacketID, mm, pool)
		b.L2s = append(b.L2s, l2)
		agent := &tileAgent{l2: l2}
		if mcAt[node] {
			mc := mem.New(node, opt.Mem, ep, mesh.NextPacketID, mm, pool)
			agent.mc = mc
			k.RegisterGroup(node, mc)
		}
		ep.SetAgent(agent)
		inj := trace.NewInjector(node, opt.Profile, opt.Seed, l2, opt.MaxOutstanding, opt.WarmupPerCore, opt.WorkPerCore)
		b.Injectors = append(b.Injectors, inj)
		l2.OnComplete = func(c coherence.Completion) {
			inj.OnComplete(c.Addr, c.Write, c.Issue, c.Done, c.Hit, c.ServedByCache, &c.Breakdown)
		}
		// One scheduling unit per node (the machine is serial anyway, but the
		// activity engine parks and wakes whole units): the endpoint delivers
		// straight into the L2 and memory controller, and the injector drives
		// the L2.
		act := k.RegisterGroup(node, inj)
		k.RegisterGroup(node, l2)
		k.RegisterGroup(node, ep)
		// The node's unit is woken by its link traffic and, under INSO, by
		// expiry broadcasts it owes.
		ep.BindActivity(act)
		if b.INSO != nil {
			b.INSO.SetEndpointActivity(node, act)
		}
	}
	mesh.Register(k)
	k.SetIdleSkip(!opt.DisableIdleSkip)
	if b.Obs, err = buildObs(opt.Obs, &b.machine, mesh, b); err != nil {
		return nil, err
	}
	hook(b.Obs, mesh)
	hook(b.Obs, b.Endpoints...)
	hook(b.Obs, b.L2s...)
	b.attribute()
	return b, nil
}

// read, inflight and snapshot implement probe.
func (b *Baseline) read(c *reading) {
	for _, ep := range b.Endpoints {
		c.injected += ep.Injected
		c.ejected += ep.Delivered
	}
	c.net = b.Mesh.Stats()
	c.buffered = b.Mesh.BufferedFlits()
	c.outstanding = outstanding(b.L2s)
}

func (b *Baseline) inflight() bool { return meshInflight(b.Mesh, b.Endpoints) }

func (b *Baseline) snapshot(now uint64) string {
	return meshSnapshot(b.Mesh, b.Endpoints, now) + missReport(b.L2s)
}

// Run executes to completion and collects results. A watchdog stall aborts
// the run with the full network snapshot in the error.
func (b *Baseline) Run(limit uint64) (Results, error) {
	r, err := b.run(limit, nil)
	if err != nil {
		return r, err
	}
	r.Protocol, r.Benchmark = b.opt.Scheme.String(), b.opt.Profile.Name
	if b.opt.Scheme == SchemeINSO {
		r.Protocol = fmt.Sprintf("INSO-%d", b.opt.ExpiryWindow)
	}
	r.addSnoopyL2s(b.L2s)
	for _, ep := range b.Endpoints {
		r.OrderingLat.Merge(ep.OrderingWait)
	}
	ns := b.Mesh.Stats()
	r.FlitsRouted, r.Bypasses = ns.FlitsRouted, ns.Bypasses
	return r, nil
}
