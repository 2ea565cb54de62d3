// Package traffic is the network-only evaluation harness: open-loop
// synthetic traffic patterns driven straight into the main network, in the
// style of the GARNET/DAC-prototype methodology the paper's NoC is built on.
//
// It measures average packet latency and accepted throughput versus offered
// load, which is how Section 5.3's capacity argument is validated: "the
// theoretical throughput of a k×k mesh is 1/k² for broadcasts, reducing from
// 0.027 flits/node/cycle for 36 cores to 0.01 flits/node/cycle for
// 100 cores".
package traffic

import (
	"fmt"

	"scorpio/internal/noc"
	"scorpio/internal/ring"
	"scorpio/internal/sim"
	"scorpio/internal/stats"
)

// Pattern selects the destination distribution.
type Pattern int

// Classic synthetic patterns.
const (
	// UniformRandom sends each packet to a uniformly random other node.
	UniformRandom Pattern = iota
	// BitComplement sends node (x,y) to (W-1-x, H-1-y).
	BitComplement
	// Transpose sends node (x,y) to (y,x).
	Transpose
	// Hotspot sends everything to node 0.
	Hotspot
	// Broadcast sends every packet to all nodes (the coherence-request
	// pattern; saturation ≈ 1/k² flits/node/cycle).
	Broadcast
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform-random"
	case BitComplement:
		return "bit-complement"
	case Transpose:
		return "transpose"
	case Hotspot:
		return "hotspot"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Config describes one open-loop run.
type Config struct {
	Net     noc.Config
	Pattern Pattern
	// InjectionRate is offered load in packets per node per cycle.
	InjectionRate float64
	// Flits is the packet length (1 = control, DataPacketFlits() = data).
	Flits int
	// Cycles is the measurement length; the first Cycles/5 are warmup.
	Cycles uint64
	Seed   uint64
}

// warmup is the number of leading cycles excluded from measurement.
func (c Config) warmup() uint64 { return c.Cycles / 5 }

// Result is one run's measurement.
type Result struct {
	Pattern       Pattern
	InjectionRate float64
	// AcceptedRate is delivered packets per node per cycle (tail-received).
	AcceptedRate float64
	// AvgLatency is the mean inject→delivery latency in cycles.
	AvgLatency float64
	// P99Latency approximates the 99th percentile latency.
	P99Latency uint64
	Delivered  uint64
	Offered    uint64
}

// node is the open-loop source/sink at one tile. It recycles its packets so
// the harness runs allocation-free in steady state (see
// TestMeshSteadyStateAllocs): a unicast packet at its sink, a broadcast at
// the last of its N-1 sinks (noc.Packet.Delivered). The packet list is
// SHARED across all nodes: a packet is freed at its sink but drawn at a
// (different) source, so per-node free lists would drift apart as a random
// walk and keep allocating forever; the shared list is bounded by the
// packets in flight. Sharing is race-free because the traffic harness
// always runs the kernel serially (Run never calls SetWorkers).
type node struct {
	id      int
	cfg     Config
	term    *noc.Terminal
	ej      *noc.Link
	rng     *sim.RNG
	queue   ring.Ring[*noc.Packet]
	warm    uint64
	now     uint64
	issueAt uint64
	lat     *stats.Histogram
	recv    uint64
	offered uint64
	// idDigest folds every delivered packet ID in arrival order (FNV-1a
	// style): an order-and-identity witness the determinism suite compares
	// across worker counts and idle-skip modes.
	idDigest uint64
	pkts     *pktPool
}

// newNode builds the node at tile id and registers it with k. pkts is its
// packet pool: Run shares one across nodes (see node), while tests that
// shard nodes across workers give each node its own.
func newNode(k *sim.Kernel, mesh *noc.Mesh, cfg Config, id int, rng *sim.RNG, pkts *pktPool) *node {
	n := &node{
		id: id, cfg: cfg, rng: rng, pkts: pkts,
		term:  noc.NewTerminal(mesh, id),
		ej:    mesh.EjectLink(id),
		warm:  cfg.warmup(),
		lat:   stats.NewHistogram(4, 512),
		queue: ring.New[*noc.Packet](8),
	}
	n.armNext(0)
	n.term.Bind(k.Register(n))
	return n
}

// pktPool recycles delivered packets (see the sharing note on node).
type pktPool struct {
	free []*noc.Packet
}

// get draws a recycled packet (zeroed) or allocates one.
func (pp *pktPool) get() *noc.Packet {
	if k := len(pp.free); k > 0 {
		p := pp.free[k-1]
		pp.free[k-1] = nil
		pp.free = pp.free[:k-1]
		*p = noc.Packet{}
		return p
	}
	return &noc.Packet{}
}

// put returns a delivered packet to the pool.
func (pp *pktPool) put(p *noc.Packet) { pp.free = append(pp.free, p) }

// armNext presamples the cycle of the next injection attempt by running the
// exact Bernoulli trials per-cycle generation would run, starting at `from`.
// The RNG stream is therefore bit-identical to drawing one trial per cycle,
// while letting a quiet node park until issueAt instead of stepping every
// cycle just to flip a coin.
func (n *node) armNext(from uint64) {
	if n.cfg.InjectionRate <= 0 {
		n.issueAt = sim.NoEvent
		return
	}
	for at := from; ; at++ {
		if n.rng.Bernoulli(n.cfg.InjectionRate) {
			n.issueAt = at
			return
		}
	}
}

// Idle reports whether the node can park: nothing queued or mid-injection
// and no value on its links awaiting next-cycle consumption.
func (n *node) Idle() bool {
	return !n.term.Busy() && n.queue.Empty() && n.term.Quiet(n.now)
}

// NextEventCycle names the presampled injection cycle as the node's wake.
func (n *node) NextEventCycle(cycle uint64) uint64 {
	if n.issueAt <= cycle {
		return cycle + 1
	}
	return n.issueAt
}

// Evaluate generates, injects and sinks packets.
func (n *node) Evaluate(cycle uint64) {
	n.now = cycle
	n.term.TakeCredits(cycle)
	// Sink.
	if f := n.ej.Flit(cycle); f != nil {
		n.ej.SendCredit(noc.Credit{VNet: f.Pkt.VNet, VC: f.InVC(), FreeVC: f.IsTail()}, cycle)
		if f.IsTail() {
			n.idDigest = (n.idDigest ^ f.Pkt.ID) * 1099511628211
			if cycle >= n.warm {
				n.recv++
				n.lat.Observe(cycle - f.Pkt.InjectCycle)
			}
			if f.Pkt.Delivered() {
				n.pkts.put(f.Pkt)
			}
		}
	}
	// Open-loop generation: the per-cycle Bernoulli trials are presampled
	// into issueAt (see armNext), preserving the RNG stream exactly.
	if cycle == n.issueAt {
		if dst, bcast, ok := n.destination(); ok {
			vnet := noc.UOResp
			if bcast {
				vnet = noc.GOReq
			}
			p := n.pkts.get()
			// IDs are derived from (cycle, node) instead of a shared counter:
			// unique because a node injects at most one packet per cycle, and
			// free of cross-shard writes when node units run in parallel.
			p.ID, p.VNet, p.Src, p.SID = cycle*uint64(n.cfg.Net.Nodes())+uint64(n.id)+1, vnet, n.id, n.id
			p.Dst, p.Broadcast, p.Flits, p.InjectCycle = dst, bcast, n.cfg.Flits, cycle
			if bcast {
				p.Flits = 1
				p.ExpectDeliveries(n.cfg.Net.Nodes() - 1)
			}
			n.queue.Push(p)
			if cycle >= n.warm {
				n.offered++
			}
		}
		n.armNext(cycle + 1)
	}
	// Injection, one flit per cycle, in queue order.
	if n.term.Busy() {
		n.term.Continue(cycle)
	} else if !n.queue.Empty() && n.term.Start(n.queue.Front(), cycle) {
		n.queue.PopFront()
	}
}

func (n *node) Commit(cycle uint64) {}

// destination picks the pattern's target; ok is false for self-targets
// (skipped).
func (n *node) destination() (int, bool, bool) {
	cfg := n.cfg.Net
	x, y := cfg.Coord(n.id)
	switch n.cfg.Pattern {
	case UniformRandom:
		d := n.rng.Intn(cfg.Nodes())
		if d == n.id {
			return 0, false, false
		}
		return d, false, true
	case BitComplement:
		d := cfg.NodeAt(cfg.Width-1-x, cfg.Height-1-y)
		if d == n.id {
			return 0, false, false
		}
		return d, false, true
	case Transpose:
		if x == y || y >= cfg.Width || x >= cfg.Height {
			return 0, false, false
		}
		return cfg.NodeAt(y, x), false, true
	case Hotspot:
		if n.id == 0 {
			return 0, false, false
		}
		return 0, false, true
	case Broadcast:
		return 0, true, true
	default:
		panic("traffic: unknown pattern")
	}
}

// Run executes one open-loop measurement.
func Run(cfg Config) (Result, error) { return run(cfg, true) }

// run is Run with the kernel's activity engine on or off; the two give
// identical results, and the tests compare them.
func run(cfg Config, idleSkip bool) (Result, error) {
	if cfg.Flits <= 0 {
		cfg.Flits = 1
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 20000
	}
	k, nodes, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	k.SetIdleSkip(idleSkip)
	k.Run(cfg.Cycles)
	res := Result{Pattern: cfg.Pattern, InjectionRate: cfg.InjectionRate}
	var latSum float64
	var latN uint64
	var p99 uint64
	for _, n := range nodes {
		res.Delivered += n.recv
		res.Offered += n.offered
		latSum += n.lat.Mean() * float64(n.lat.Count())
		latN += n.lat.Count()
		if p := n.lat.Percentile(99); p > p99 {
			p99 = p
		}
	}
	measured := float64(cfg.Cycles - cfg.warmup())
	// Broadcasts deliver N-1 copies; count packet-equivalents per source.
	div := 1.0
	if cfg.Pattern == Broadcast {
		div = float64(cfg.Net.Nodes() - 1)
	}
	res.AcceptedRate = float64(res.Delivered) / div / float64(cfg.Net.Nodes()) / measured
	if latN > 0 {
		res.AvgLatency = latSum / float64(latN)
	}
	res.P99Latency = p99
	return res, nil
}

// build assembles cfg's mesh on a serial kernel with a node at every tile,
// all sharing one packet list (see node).
func build(cfg Config) (*sim.Kernel, []*node, error) {
	mesh, err := noc.NewMesh(cfg.Net)
	if err != nil {
		return nil, nil, err
	}
	k := sim.NewKernel()
	rng := sim.NewRNG(cfg.Seed + 1)
	nodes := make([]*node, cfg.Net.Nodes())
	pkts := &pktPool{}
	for i := range nodes {
		nodes[i] = newNode(k, mesh, cfg, i, rng.Fork(), pkts)
	}
	mesh.Register(k)
	return k, nodes, nil
}

// SaturationThroughput sweeps the injection rate upward until accepted
// throughput stops tracking offered load (within slack), returning the last
// stable rate — the measured network capacity.
func SaturationThroughput(net noc.Config, pattern Pattern, flits int, seed uint64) (float64, error) {
	last := 0.0
	for rate := 0.002; rate <= 1.0; rate *= 1.4 {
		res, err := Run(Config{Net: net, Pattern: pattern, InjectionRate: rate, Flits: flits, Cycles: 12000, Seed: seed})
		if err != nil {
			return 0, err
		}
		if float64(res.Delivered) < 0.9*float64(res.Offered) {
			return last, nil
		}
		last = res.AcceptedRate
	}
	return last, nil
}
