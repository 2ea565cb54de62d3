package main

import (
	"fmt"
	"time"

	"scorpio/internal/coherence"
	"scorpio/internal/directory"
	"scorpio/internal/mem"
	"scorpio/internal/noc"
	"scorpio/internal/sim"
)

// layer is a part of the simulator the traced run charges time to.
type layer int

const (
	layerBench     layer = iota // the traced driver's own loop and done checks
	layerNoC                    // routers
	layerNIC                    // NICs, minus deliveries into their agents
	layerNotif                  // the notification network
	layerCoherence              // SCORPIO L2s and deliveries into them
	layerMem                    // memory controllers and deliveries into them
	layerHome                   // directory homes and deliveries into them
	layerDirL2                  // directory-protocol L2s and deliveries into them
	layerTrace                  // injectors and completion callbacks
	numLayers
)

// clock charges elapsed time to the current layer. Every switch reads the
// clock once, so nested spans (a NIC delivering into its L2) leave each
// layer exactly its self time.
type clock struct {
	ns   [numLayers]int64
	cur  layer
	last time.Time
}

func (c *clock) start() {
	c.cur = layerBench
	c.last = time.Now()
}

// to switches to layer l and returns the layer it left.
func (c *clock) to(l layer) layer {
	now := time.Now()
	c.ns[c.cur] += int64(now.Sub(c.last))
	c.last = now
	prev := c.cur
	c.cur = l
	return prev
}

// class is every component of one kind, swept together.
type class struct {
	layer layer
	comps []sim.Component
}

// classes lists a machine's components by kind in the per-node order the
// kernel registers them (SCORPIO: NIC, MC, L2, injector, then routers, then
// the notification network; directory machines: injector, L2, home, NIC,
// then routers). Components of one node only call into each other in that
// order, and across nodes only through committed state, so sweeping a class
// at a time steps the same machine the kernel does.
func (m *machine) classes() []class {
	var cls []class
	add := func(l layer, n int, at func(int) sim.Component) {
		c := class{layer: l}
		for i := 0; i < n; i++ {
			c.comps = append(c.comps, at(i))
		}
		cls = append(cls, c)
	}
	if s := m.s; s != nil {
		add(layerNIC, m.nodes(), func(i int) sim.Component { return s.Net.NIC(i) })
		add(layerMem, len(s.MCs), func(i int) sim.Component { return s.MCs[i] })
		add(layerCoherence, len(s.L2s), func(i int) sim.Component { return s.L2s[i] })
		add(layerTrace, len(s.Injectors), func(i int) sim.Component { return s.Injectors[i] })
		for _, mesh := range s.Net.Meshes() {
			add(layerNoC, m.nodes(), func(i int) sim.Component { return mesh.Router(i) })
		}
		add(layerNotif, 1, func(int) sim.Component { return s.Net.Notif() })
		return cls
	}
	d := m.d
	add(layerTrace, len(d.Injectors), func(i int) sim.Component { return d.Injectors[i] })
	add(layerDirL2, len(d.L2s), func(i int) sim.Component { return d.L2s[i] })
	add(layerHome, len(d.Homes), func(i int) sim.Component { return d.Homes[i] })
	add(layerNIC, len(d.NICs), func(i int) sim.Component { return d.NICs[i] })
	add(layerNoC, m.nodes(), func(i int) sim.Component { return d.Mesh.Router(i) })
	return cls
}

// timeCallbacks re-attaches every node's NIC agent, and the callbacks the
// controllers make into other layers, wrapped so that time spent in them is
// charged to the layer called.
func (m *machine) timeCallbacks(clk *clock) {
	timeCompletion := func(f func(coherence.Completion)) func(coherence.Completion) {
		return func(c coherence.Completion) {
			prev := clk.to(layerTrace)
			f(c)
			clk.to(prev)
		}
	}
	if s := m.s; s != nil {
		mcAt := map[int]*mem.Controller{}
		for _, mc := range s.MCs {
			mcAt[mc.Node()] = mc
		}
		for node, l2 := range s.L2s {
			s.Net.AttachAgent(node, &timedTileAgent{clk: clk, l2: l2, mc: mcAt[node]})
			l2.OnComplete = timeCompletion(l2.OnComplete)
		}
		return
	}
	d := m.d
	for node, n := range d.NICs {
		l2, home := d.L2s[node], d.Homes[node]
		n.SetAgent(&timedDirAgent{clk: clk, l2: l2, home: home})
		home.LocalProbe = func(p *noc.Packet, cycle uint64) bool {
			prev := clk.to(layerDirL2)
			ok := l2.HandleProbe(p, cycle)
			clk.to(prev)
			return ok
		}
		l2.OnComplete = timeCompletion(l2.OnComplete)
	}
}

// timedTileAgent is the SCORPIO tile's NIC agent (system.tileAgent) with
// each delivery timed into the L2 or the memory controller.
type timedTileAgent struct {
	clk *clock
	l2  *coherence.L2Controller
	mc  *mem.Controller
}

func (a *timedTileAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool {
	prev := a.clk.to(layerCoherence)
	defer a.clk.to(prev)
	if !a.l2.CanAcceptOrdered(cycle) || !a.l2.ProcessOrdered(p, arrive, cycle) {
		return false
	}
	if a.mc != nil {
		a.clk.to(layerMem)
		a.mc.ProcessOrdered(p, arrive, cycle)
	}
	return true
}

func (a *timedTileAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	if coherence.Kind(p.Kind) == coherence.WBData {
		if a.mc == nil {
			panic("bench: writeback data delivered to a node without a memory controller")
		}
		prev := a.clk.to(layerMem)
		defer a.clk.to(prev)
		return a.mc.AcceptResponse(p, cycle)
	}
	prev := a.clk.to(layerCoherence)
	defer a.clk.to(prev)
	return a.l2.AcceptResponse(p, cycle)
}

// timedDirAgent is the directory tile's NIC agent (system.dirTileAgent) with
// each delivery timed into the L2 or the home slice.
type timedDirAgent struct {
	clk  *clock
	l2   *directory.L2
	home *directory.Home
}

func (a *timedDirAgent) AcceptOrderedRequest(p *noc.Packet, arrive, cycle uint64) bool {
	switch directory.Kind(p.Kind) {
	case directory.ReqGetS, directory.ReqGetX, directory.ReqPutM:
		prev := a.clk.to(layerHome)
		defer a.clk.to(prev)
		return a.home.Request(p, arrive, cycle)
	case directory.ProbeS, directory.ProbeX:
		prev := a.clk.to(layerDirL2)
		defer a.clk.to(prev)
		return a.l2.HandleProbe(p, cycle)
	}
	panic(fmt.Sprintf("bench: unexpected request-class kind %d", p.Kind))
}

func (a *timedDirAgent) AcceptResponse(p *noc.Packet, cycle uint64) bool {
	kind := directory.Kind(p.Kind)
	to := layerDirL2
	if kind == directory.WBData || kind == directory.Done {
		to = layerHome
	}
	prev := a.clk.to(to)
	defer a.clk.to(prev)
	switch kind {
	case directory.FwdGetS, directory.FwdGetX:
		a.l2.HandleFwd(p, cycle)
	case directory.Inv:
		a.l2.HandleInv(p, cycle)
	case directory.DataD, directory.InvAck, directory.WBAck:
		a.l2.HandleResponse(p, cycle)
	case directory.WBData:
		a.home.WBDataArrived(p, cycle)
	case directory.Done:
		a.home.DoneArrived(p, cycle)
	default:
		panic(fmt.Sprintf("bench: unexpected response-class kind %d", p.Kind))
	}
	return true
}

// drive steps the machine serially one class at a time, charging each
// class sweep to its layer, until the run would end on the kernel: when
// every core is done, or after the point's fixed window. The kernel itself
// is never stepped, so no activity engine or worker pool runs: every
// component is evaluated every cycle.
func (m *machine) drive(cls []class, clk *clock, limit uint64) (uint64, error) {
	injs := m.injectors()
	done := func(cyc uint64) bool {
		if m.p.work == 0 {
			return cyc >= m.p.cycles
		}
		for _, in := range injs {
			if !in.Done() {
				return false
			}
		}
		return true
	}
	var cyc uint64
	clk.start()
	for !done(cyc) {
		if cyc >= limit {
			return cyc, fmt.Errorf("traced run did not finish within %d cycles", limit)
		}
		for _, c := range cls {
			clk.to(c.layer)
			for _, x := range c.comps {
				x.Evaluate(cyc)
			}
		}
		for _, c := range cls {
			clk.to(c.layer)
			for _, x := range c.comps {
				x.Commit(cyc)
			}
		}
		clk.to(layerBench)
		cyc++
	}
	clk.to(layerBench)
	return cyc, nil
}

// tracedPoint is one point's traced run.
type tracedPoint struct {
	cycles uint64
	digest uint64
	clk    clock
}

// runTraced builds the point, times its callbacks and drives it class by
// class; keep filters the classes (the full list in every real run).
// limit bounds a run that would otherwise never finish.
func runTraced(p point, seed, limit uint64, keep func(class) bool) (tracedPoint, error) {
	var out tracedPoint
	m, err := build(p, seed, nil)
	if err != nil {
		return out, err
	}
	m.timeCallbacks(&out.clk)
	var cls []class
	for _, c := range m.classes() {
		if keep(c) {
			cls = append(cls, c)
		}
	}
	out.cycles, err = m.drive(cls, &out.clk, limit)
	if err != nil {
		return out, err
	}
	if err := m.verifyOrder(); err != nil {
		return out, err
	}
	o := m.observe(out.cycles)
	out.digest = o.digest()
	return out, p.checkProgress(o)
}

func keepAll(class) bool { return true }
