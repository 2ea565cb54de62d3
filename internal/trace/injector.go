package trace

import (
	"scorpio/internal/obs"
	"scorpio/internal/sim"
	"scorpio/internal/slab"
	"scorpio/internal/stats"
)

// RequestPort is the L2 controller interface the injector drives (the
// chip's AHB port: at most two outstanding transactions).
type RequestPort interface {
	// CoreRequest offers one memory access; false means retry next cycle.
	CoreRequest(addr uint64, write bool, cycle uint64) bool
}

// Injector replays a synthetic benchmark stream into one tile's L2.
type Injector struct {
	node           int
	prof           Profile
	rng            sim.RNG
	port           RequestPort
	maxOutstanding int
	limit          uint64 // measured accesses to complete (0 = unbounded)
	warmup         uint64 // accesses completed before statistics engage

	outstanding int
	nextIssueAt uint64
	pending     access // generated but not yet accepted by the L2
	hasPending  bool   // pending holds an access
	burstLeft   int    // remaining accesses of the current burst
	// armed/issueAt presample the think-time countdown: instead of one
	// Bernoulli trial per cycle, the whole geometric countdown is drawn at
	// the first eligible cycle (consuming the identical RNG stream — a
	// geometric draw IS the sequence of per-cycle trials) and the issue
	// lands at issueAt. Between arming and firing the injector is pure
	// countdown, so the activity engine can park it until issueAt.
	// Eligibility cannot regress while armed: outstanding only grows on an
	// issue, so the presampled countdown always fires exactly where the
	// per-cycle trials would have succeeded.
	armed    bool
	issueAt  uint64
	coldNext uint64
	history  []uint64 // recently touched lines (temporal locality), over histBuf
	histPos  int
	histBuf  [historyDepth]uint64

	// Issued/Completed count accesses; the run loop ends when every
	// injector completes its limit.
	Issued    uint64
	Completed uint64
	DoneCycle uint64

	// Latency accounting.
	ServiceLatency stats.Mean
	ServiceHist    *stats.Histogram // full distribution (p50/p99/max)
	HitLatency     stats.Mean
	MissLatency    stats.Mean
	CacheServed    *stats.Breakdown // misses served by other caches
	MemServed      *stats.Breakdown // misses served by memory/directory

	// Attr, when non-nil, receives every measured miss's segment breakdown
	// as full per-component histograms (the latency attributor).
	Attr *obs.Attribution

	// serviceHist, cacheServed and memServed are what the exported
	// pointers above point at, so the injector carries them in its slot.
	serviceHist stats.Histogram
	cacheServed stats.Breakdown
	memServed   stats.Breakdown

	// Injectors sit side by side in one slab and belong to different
	// shards; the pad rounds the stride to whole cache lines.
	_ [16]byte
}

// access is one generated request.
type access struct {
	addr  uint64
	write bool
}

// Address-space layout (line addresses): shared pool at base 1<<30, hot set
// inside it, per-core private pools spaced apart, per-core cold streams far
// above everything.
const (
	sharedBase  = uint64(1) << 30
	privateBase = uint64(1) << 34
	privateSpan = uint64(1) << 24
	coldBase    = uint64(1) << 40
	coldSpan    = uint64(1) << 24
)

// historyDepth is the number of recently touched lines a core may revisit.
const historyDepth = 128

// serviceBuckets is the service histogram's shape: 512 buckets of 4 cycles.
const (
	serviceBucketWidth = 4
	serviceBuckets     = 512
)

// NewInjector builds an injector for a node. The first warmup completions
// fill the caches without recording statistics (the paper's RTL runs omit
// the first 20K cycles the same way); limit accesses are then measured.
func NewInjector(node int, prof Profile, seed uint64, port RequestPort, maxOutstanding int, warmup, limit uint64) *Injector {
	in := new(Injector)
	in.init(node, prof, seed, port, maxOutstanding, warmup, limit, make([]uint64, serviceBuckets))
	return in
}

// NewInjectors builds the injectors of nodes 0..len(ports)-1 as NewInjector
// builds one, node i driving ports[i]. The injectors are one slice and their
// service histograms' buckets one slab.
func NewInjectors(prof Profile, seed uint64, ports []RequestPort, maxOutstanding int, warmup, limit uint64) []Injector {
	buckets := slab.Make[uint64](len(ports) * serviceBuckets)
	ins := make([]Injector, len(ports))
	for i := range ins {
		ins[i].init(i, prof, seed, ports[i], maxOutstanding, warmup, limit, buckets.Cut(serviceBuckets))
	}
	return ins
}

// init builds node's injector, its service histogram over buckets.
func (in *Injector) init(node int, prof Profile, seed uint64, port RequestPort, maxOutstanding int, warmup, limit uint64, buckets []uint64) {
	in.node, in.prof, in.port = node, prof, port
	in.rng = *sim.NewRNG(seed ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
	in.maxOutstanding, in.warmup, in.limit = maxOutstanding, warmup, limit
	in.serviceHist = stats.MakeHistogram(serviceBucketWidth, buckets)
	in.ServiceHist, in.CacheServed, in.MemServed = &in.serviceHist, &in.cacheServed, &in.memServed
	in.history = in.histBuf[:0]
}

// Done reports whether the injector completed its warmup and work quota.
func (in *Injector) Done() bool {
	return in.limit > 0 && in.Completed >= in.warmup+in.limit
}

// OnComplete is wired as the L2 completion callback. breakdown carries a
// miss's latency segments; a hit may pass nil.
func (in *Injector) OnComplete(addr uint64, write bool, issue, done uint64, hit, servedByCache bool, breakdown *[stats.NumBreakdownComponents]uint64) {
	in.outstanding--
	in.Completed++
	if in.Completed > in.warmup {
		lat := float64(done - issue)
		in.ServiceLatency.Observe(lat)
		in.ServiceHist.Observe(done - issue)
		if hit {
			in.HitLatency.Observe(lat)
		} else {
			in.MissLatency.Observe(lat)
			if servedByCache {
				in.CacheServed.Observe(breakdown)
			} else {
				in.MemServed.Observe(breakdown)
			}
			in.Attr.Observe(servedByCache, breakdown)
		}
	}
	if in.Done() && in.DoneCycle == 0 {
		in.DoneCycle = done
	}
}

// Evaluate issues at most one access per cycle, respecting the outstanding
// cap and the think-time distribution. Accesses arrive in bursts whose size
// scales with the core's miss resources, so aggressive multi-outstanding
// cores behave like Section 5.2's bursty cores (the Figure 8d study) while
// the average access rate stays at the profile's intensity.
func (in *Injector) Evaluate(cycle uint64) {
	if in.limit > 0 && in.Issued >= in.warmup+in.limit {
		return
	}
	if in.outstanding >= in.maxOutstanding {
		return
	}
	if !in.hasPending {
		if in.burstLeft == 0 {
			if cycle < in.nextIssueAt {
				return
			}
			if !in.armed {
				meanBurst := float64(1+in.maxOutstanding) / 2
				g := in.rng.Geometric(in.prof.IssueProb / meanBurst)
				in.issueAt = cycle + uint64(g) - 1
				in.armed = true
			}
			if cycle < in.issueAt {
				return
			}
			in.armed = false
			in.burstLeft = 1 + in.rng.Intn(in.maxOutstanding)
		}
		in.pending = in.generate()
		in.hasPending = true
		in.burstLeft--
	}
	if in.port.CoreRequest(in.pending.addr, in.pending.write, cycle) {
		in.hasPending = false
		in.outstanding++
		in.Issued++
		in.nextIssueAt = cycle + 1
	}
}

// Commit implements sim.Component.
func (in *Injector) Commit(cycle uint64) {}

// Idle implements sim.Idler: the injector is skippable when it is finished,
// blocked on the outstanding cap (a completion reaches this unit through the
// NIC's link wake), or mid-countdown (armed; NextEventCycle names the issue
// cycle). It must run while it holds an unaccepted access, an open burst, or
// an unarmed countdown.
func (in *Injector) Idle() bool {
	if in.limit > 0 && in.Issued >= in.warmup+in.limit {
		return true
	}
	if in.outstanding >= in.maxOutstanding {
		return true
	}
	if in.hasPending || in.burstLeft > 0 {
		return false
	}
	return in.armed
}

// NextEventCycle implements sim.NextEventer: the presampled issue cycle when
// armed; nothing otherwise (completions re-activate the unit via link
// wakes). outstanding cannot reach the cap while armed, so an armed injector
// always fires at issueAt.
func (in *Injector) NextEventCycle(cycle uint64) uint64 {
	if in.limit > 0 && in.Issued >= in.warmup+in.limit {
		return sim.NoEvent
	}
	if !in.armed || in.outstanding >= in.maxOutstanding {
		return sim.NoEvent
	}
	if in.issueAt <= cycle {
		return cycle + 1
	}
	return in.issueAt
}

// generate draws the next access from the profile's address mixture. The
// warmup phase is write-heavy: it models the producer/initialisation phase
// of the benchmarks, which leaves shared data dirty-owned on chip (the
// precondition for the paper's ~90% cache-to-cache service ratio).
func (in *Injector) generate() access {
	wf := in.prof.WriteFrac
	if in.Issued < in.warmup && wf < 0.6 {
		wf = 0.6
	}
	write := in.rng.Bernoulli(wf)
	// Temporal locality: revisit a recently touched line.
	if len(in.history) > 0 && in.rng.Bernoulli(in.prof.ReuseProb) {
		return access{addr: in.history[in.rng.Intn(len(in.history))], write: write}
	}
	var addr uint64
	r := in.rng.Float64()
	switch {
	case r < in.prof.ColdFrac:
		addr = coldBase + uint64(in.node)*coldSpan + in.coldNext
		in.coldNext++
	case r < in.prof.ColdFrac+in.prof.SharedFrac:
		if in.rng.Bernoulli(in.prof.HotFrac) {
			addr = sharedBase + uint64(in.rng.Intn(in.prof.HotLines))
		} else {
			addr = sharedBase + uint64(in.prof.HotLines) + uint64(in.rng.Intn(in.prof.SharedLines))
		}
	default:
		addr = privateBase + uint64(in.node)*privateSpan + uint64(in.rng.Intn(in.prof.PrivateLines))
	}
	in.remember(addr)
	return access{addr: addr, write: write}
}

// remember records a fresh address in the reuse history ring. The ring
// fills in place in histBuf, so it never allocates.
func (in *Injector) remember(addr uint64) {
	if len(in.history) < historyDepth {
		in.history = append(in.history, addr)
		return
	}
	in.history[in.histPos] = addr
	in.histPos = (in.histPos + 1) % historyDepth
}
