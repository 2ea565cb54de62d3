package system

import (
	"fmt"

	"scorpio/internal/baseline"
	"scorpio/internal/coherence"
	"scorpio/internal/mem"
	"scorpio/internal/noc"
	"scorpio/internal/obs/audit"
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
	Workload
	Scheme OrderingScheme
	// ExpiryWindow is INSO's expiration window in cycles (20/40/80).
	ExpiryWindow int
	Net          noc.Config
	L2           coherence.Config
	Mem          mem.Config
	MCNodes      []int
}

// DefaultBaselineOptions mirrors the paper's 16-core Figure 7 setup.
func DefaultBaselineOptions(scheme OrderingScheme, prof trace.Profile) BaselineOptions {
	net := noc.DefaultConfig()
	net.Width, net.Height = 4, 4
	return BaselineOptions{
		Workload:     DefaultWorkload(prof),
		Scheme:       scheme,
		ExpiryWindow: 20,
		Net:          net,
		L2:           coherence.DefaultConfig(),
		Mem:          mem.DefaultConfig(),
	}
}

// fill derives what follows from the mesh and the outstanding-miss limit:
// every data packet's size and the miss resources.
func (o *BaselineOptions) fill() {
	o.Workload.fill()
	o.L2.DataFlits = o.Net.DataPacketFlits()
	o.Mem.DataFlits = o.Net.DataPacketFlits()
	o.holdMisses(&o.L2.MSHRs, &o.L2.CoreQueueDepth)
}

// baselineOrderWindow is the TokenB and INSO global-order check's window.
// Their reorder buffers are unbounded by design, so no skew bound follows
// from the hardware; every audited baseline run has stayed within 16K
// positions.
const baselineOrderWindow = 1 << 14

// Baseline is an assembled TokenB or INSO machine.
type Baseline struct {
	machine
	opt       BaselineOptions
	Mesh      *noc.Mesh
	Endpoints []*baseline.Endpoint
	L2s       []*coherence.L2Controller
	INSO      *baseline.INSO // nil for TokenB
}

// NewBaseline builds the machine with trace injectors attached.
func NewBaseline(opt BaselineOptions) (*Baseline, error) {
	if err := opt.Profile.Validate(); err != nil {
		return nil, err
	}
	return newBaseline(opt, true)
}

// NewBaselineBare builds the machine without workload drivers, as
// NewScorpioBare does: custom drivers attach through L2s[n].CoreAccess /
// OnComplete.
func NewBaselineBare(opt BaselineOptions) (*Baseline, error) {
	return newBaseline(opt, false)
}

// newBaseline builds the machine, with an injector driving each L2 when
// drive is set. Baseline machines always run on the serial kernel: both
// orderers hand out global sequence numbers from a shared counter during
// Endpoint.Commit, so their results depend on commit order and cannot be
// sharded across workers without changing behaviour.
func newBaseline(opt BaselineOptions, drive bool) (*Baseline, error) {
	if opt.Workers > 1 {
		return nil, fmt.Errorf("system: %s runs on the serial kernel only, so Workers = %d does not apply", opt.Scheme, opt.Workers)
	}
	opt.fill()
	mesh, err := noc.NewMesh(opt.Net)
	if err != nil {
		return nil, err
	}
	mm, mcAt, err := mcLayout(opt.MCNodes, opt.Net.Width, opt.Net.Height)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	b := &Baseline{opt: opt, Mesh: mesh, machine: machine{
		Kernel: k, label: opt.Scheme.String() + "/" + opt.Profile.Name,
		order: audit.NewOrderCheck(opt.Net.Nodes(), baselineOrderWindow),
	}}
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
	pool := new(coherence.Pool[coherence.RespInfo])
	nodes := opt.Net.Nodes()
	ports := make([]coherence.NetPort, nodes)
	ids := make([]coherence.IDSource, nodes)
	var mcNodes []int
	var mcPorts []coherence.NetPort
	var mcIDs []coherence.IDSource
	for node := range ports {
		ep := baseline.NewEndpoint(node, mesh, orderer, nil)
		if b.INSO != nil {
			ep.SetExpirySource(b.INSO)
		}
		ep.SetRecycler(pool)
		ep.SetOrderCheck(b.order)
		b.Endpoints = append(b.Endpoints, ep)
		ports[node], ids[node] = ep, mesh
		if mcAt[node] {
			mcNodes, mcPorts, mcIDs = append(mcNodes, node), append(mcPorts, ep), append(mcIDs, mesh)
		}
	}
	l2s := coherence.NewL2s(opt.L2, ports, ids, mm, pool)
	mcs := mem.NewControllers(mcNodes, opt.Mem, mcPorts, mcIDs, mm, pool)
	reqPorts := make([]trace.RequestPort, nodes)
	b.L2s = make([]*coherence.L2Controller, nodes)
	for node := range l2s {
		b.L2s[node], reqPorts[node] = &l2s[node], &l2s[node]
	}
	var complete func(coherence.Completion)
	if drive {
		b.inject(&opt.Workload, reqPorts)
		complete = b.completer()
	}
	agents := make([]tileAgent, nodes)
	for node, ep := range b.Endpoints {
		l2, agent := b.L2s[node], &agents[node]
		agent.l2 = l2
		if mcAt[node] {
			agent.mc = &mcs[0]
			mcs = mcs[1:]
			k.RegisterGroup(node, agent.mc)
		}
		ep.SetAgent(agent)
		// One scheduling unit per node (the machine is serial anyway, but the
		// activity engine parks and wakes whole units): the endpoint delivers
		// straight into the L2 and memory controller, and the injector drives
		// the L2. The unit's order (memory controller, injector, L2,
		// endpoint) is part of the model.
		if drive {
			l2.OnComplete = complete
			k.RegisterGroup(node, b.Injectors[node])
		}
		act := k.RegisterGroup(node, l2)
		k.RegisterGroup(node, ep)
		// The node's unit is woken by its link traffic and, under INSO, by
		// expiry broadcasts it owes.
		ep.BindActivity(act)
		if b.INSO != nil {
			b.INSO.SetEndpointActivity(node, act)
		}
	}
	mesh.Register(k)
	if b.Obs, err = buildObs(opt.Obs, &b.machine, mesh, b); err != nil {
		return nil, err
	}
	hook(b.Obs, mesh)
	hook(b.Obs, b.Endpoints...)
	hook(b.Obs, b.L2s...)
	b.attribute()
	return b, nil
}

// VerifyGlobalOrder returns the global-order check's first failure: two
// nodes whose L2s accepted different requests at the same position.
func (b *Baseline) VerifyGlobalOrder() error { return b.order.Err() }

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
// the run with the full network snapshot in the error; a run whose nodes
// disagree on the global order fails its final check.
func (b *Baseline) Run(limit uint64) (Results, error) {
	r, err := b.run(limit)
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
