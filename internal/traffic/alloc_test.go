package traffic

import (
	"runtime"
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/obs/perfmon"
	"scorpio/internal/obs/telemetry"
	"scorpio/internal/sim"
)

// warmMesh builds a loaded 6×6 mesh and runs it past the pool/ring warmup
// point so a subsequent step window measures the steady-state hot path only.
func warmMesh(t *testing.T) (*sim.Kernel, *noc.Mesh) {
	return warmMeshWorkers(t, 1)
}

// warmMeshWorkers is warmMesh with a kernel worker count; workers > 1 pins
// GOMAXPROCS up for the test so the phase pool picks its concurrent mode
// even on a single-CPU host, and warms the pool before the caller measures.
func warmMeshWorkers(t *testing.T, workers int) (*sim.Kernel, *noc.Mesh) {
	return warmMeshRate(t, workers, 0.05)
}

// warmMeshRate is warmMeshWorkers with an explicit injection rate; near-zero
// rates leave most units parked, exercising the activity engine's wake and
// timing-wheel paths instead of the saturated every-cycle path.
func warmMeshRate(t *testing.T, workers int, rate float64) (*sim.Kernel, *noc.Mesh) {
	return warmMeshSized(t, workers, 6, 6, rate, true)
}

// warmMeshSized is the fully-parameterized builder shared with the
// throughput benchmarks: mesh dimensions, injection rate, and the activity
// engine's on/off switch.
func warmMeshSized(t testing.TB, workers, w, h int, rate float64, idleSkip bool) (*sim.Kernel, *noc.Mesh) {
	t.Helper()
	if workers > 1 {
		old := runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	netCfg := noc.DefaultConfig()
	netCfg.Width, netCfg.Height = w, h
	cfg := Config{
		Net:           netCfg,
		Pattern:       UniformRandom,
		InjectionRate: rate,
		Flits:         1,
		Seed:          7,
	}
	mesh, err := noc.NewMesh(cfg.Net)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	rng := sim.NewRNG(cfg.Seed + 1)
	nodes := make([]*node, cfg.Net.Nodes())
	for i := range nodes {
		// Packet lists are per node here, unlike traffic.Run's shared list:
		// node units shard across workers in the parallel variants, and a
		// free list may only be touched by its owning unit. Flits need no
		// priming at all — they live in the routers' fixed-capacity arenas
		// and cross links by value.
		nodes[i] = newNode(k, mesh, cfg, i, rng.Fork(), &pktPool{})
	}
	mesh.Register(k)
	k.SetWorkers(workers)
	k.SetIdleSkip(idleSkip)

	// Prime the packet lists past their steady-state bounds: a list's
	// deficit is capped by in-flight inventory, but the first excursion to
	// each new high-water mark allocates, and those rare record events would
	// otherwise trickle in forever (~2 per 1000 cycles after warmup).
	for _, n := range nodes {
		n.pkts.free = make([]*noc.Packet, 0, 1024)
		for j := 0; j < 512; j++ {
			n.pkts.put(&noc.Packet{})
		}
	}

	// Warm up: rings reach their high-water capacity, credit buffers settle.
	k.Run(4000)
	return k, mesh
}

// TestMeshSteadyStateAllocs pins the allocation-free hot path: after the
// packet free lists and ring buffers warm up, stepping a loaded 6×6 mesh
// must not touch the heap at all. Flits live in the routers' fixed-capacity
// arenas and cross links by value, unicast packets are recycled by the node
// free lists, VC queues and staging queues are fixed rings, and Link.Commit
// swaps its credit buffers — so a steady-state cycle has nothing left to
// allocate. With tracing off (the default), every observability hook
// reduces to a nil pointer check.
func TestMeshSteadyStateAllocs(t *testing.T) {
	k, _ := warmMesh(t)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
}

// TestMeshSteadyStateAllocsTracerAttached proves the tracer's record path is
// itself allocation-free: with a lifecycle tracer attached to every router,
// a steady-state step still never touches the heap (events land in the
// preallocated ring, overwriting the oldest once full).
func TestMeshSteadyStateAllocsTracerAttached(t *testing.T) {
	k, mesh := warmMesh(t)
	tr := obs.NewTracer(1 << 14)
	mesh.SetTracer(tr)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("traced warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded no events under load")
	}
}

// TestMeshSteadyStateAllocsAuditorAttached proves the online auditor's check
// path is allocation-free too: its flit-coverage maps are presized and retire
// complete assemblies immediately, so with the auditor verifying every local
// ejection a steady-state step still never touches the heap.
func TestMeshSteadyStateAllocsAuditorAttached(t *testing.T) {
	k, mesh := warmMesh(t)
	a := audit.New(36, audit.Options{}, nil)
	mesh.SetAuditor(a)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("audited warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
	if a.FlitsChecked() == 0 {
		t.Fatal("auditor verified no flit deliveries under load")
	}
	if a.Violated() {
		t.Fatalf("healthy synthetic traffic flagged: %s", a.Report())
	}
}

// TestMeshSteadyStateAllocsParallel extends the 0-allocs/step pin to the
// parallel kernel: with the mesh sharded over 4 workers the steady-state
// step must still never touch the heap — the phase pool's barriers are
// atomics, its profiling cycles are two clock reads per unit, and a
// cost-balancing repack reuses buffers sized at pool start.
func TestMeshSteadyStateAllocsParallel(t *testing.T) {
	k, _ := warmMeshWorkers(t, 4)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("parallel warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
}

// TestMeshSteadyStateAllocsIdleSkip pins the activity engine's own hot path:
// at a near-idle injection rate most scheduling units are parked most of the
// time, so a step window is dominated by boundary scans, timing-wheel filing
// and draining, demote passes and active-list rebuilds — all of which must
// be allocation-free once the wheel slots and dispatch lists have grown to
// their steady-state capacity.
func TestMeshSteadyStateAllocsIdleSkip(t *testing.T) {
	k, _ := warmMeshRate(t, 1, 0.002)
	if !k.IdleSkip() {
		t.Fatal("idle skip must be on by default")
	}
	active, total := k.ActiveUnits()
	if active >= total {
		t.Fatalf("near-idle mesh has %d/%d units active; the test would not exercise parking", active, total)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("near-idle warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
}

// TestMeshSteadyStateAllocsIdleSkipParallel is the sharded version: parking
// and waking under the phase pool must stay allocation-free too (the active
// lists are per-shard index slices reused across rebuilds).
func TestMeshSteadyStateAllocsIdleSkipParallel(t *testing.T) {
	k, _ := warmMeshRate(t, 4, 0.002)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("near-idle parallel warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
}

// TestMeshSteadyStateAllocsPerfmonAttached pins the perf monitor's own cost
// model: even at stride 1 (every cycle timestamped — the worst case, far
// denser than the default) a steady-state step never touches the heap. The
// monitor's slots are preallocated at attach; the hot path only reads the
// clock and adds into padded atomics.
func TestMeshSteadyStateAllocsPerfmonAttached(t *testing.T) {
	k, _ := warmMesh(t)
	m := perfmon.New()
	m.Stride = 1
	k.SetPerfMon(m)
	k.Run(100) // settle the attach-triggered engine rebuild
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("perfmon-attached warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
	if m.Worker(0).Sampled.Load() == 0 {
		t.Fatal("monitor attached but sampled nothing")
	}
}

// TestMeshSteadyStateAllocsPerfmonParallel extends the pin to the phase
// pool's timed paths: sampled epoch waits and barrier timing must stay
// allocation-free under 4 workers too.
func TestMeshSteadyStateAllocsPerfmonParallel(t *testing.T) {
	k, _ := warmMeshWorkers(t, 4)
	m := perfmon.New()
	m.Stride = 1
	k.SetPerfMon(m)
	k.Run(100)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("perfmon-attached parallel warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
}

// attachTelemetry installs a telemetry publisher as the kernel's observer,
// the way the system layer's buildObs does: a reused row filled from
// driver-context reads, published into the seqlock page every interval
// cycles, with the deep-snapshot door served every cycle. No SSE client is
// connected — AllocsPerRun counts global mallocs, so a consuming goroutine
// would pollute the measurement; the no-client case is exactly what the
// 0-allocs pin is about (client rendering happens on HTTP goroutines and is
// allowed to allocate).
func attachTelemetry(k *sim.Kernel) *telemetry.Publisher {
	series := []telemetry.Series{
		{Name: "steps", Kind: telemetry.Counter, Help: "observer invocations"},
		{Name: "active_units", Kind: telemetry.Gauge, Help: "unparked scheduling units"},
		{Name: "wheel_pending", Kind: telemetry.Gauge, Help: "timing-wheel residents"},
	}
	pub := telemetry.NewPublisher(series, 64, 0, 0, 0)
	row := make([]float64, len(series))
	steps := 0.0
	k.SetObserver(func(cycle uint64) {
		pub.ServeDeep(cycle)
		steps++
		if pub.Due(cycle) {
			act := k.ActivityCounters()
			active, _ := k.ActiveUnits()
			row[0] = steps
			row[1] = float64(active)
			row[2] = float64(act.WheelPending)
			pub.Publish(cycle, row, nil)
		}
	})
	return pub
}

// TestMeshSteadyStateAllocsTelemetryAttached pins the live exporter's
// driver-side cost: with the publisher sampling every 64 cycles and the
// deep-snapshot door armed, a steady-state step still never touches the heap.
// Publishing is atomic stores into a preallocated page; broadcasting to zero
// clients is one atomic pointer load over an empty list.
func TestMeshSteadyStateAllocsTelemetryAttached(t *testing.T) {
	k, _ := warmMesh(t)
	pub := attachTelemetry(k)
	k.Run(100) // settle the observer-triggered engine rebuild
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("telemetry-attached warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
	var s telemetry.Snapshot
	if !pub.Read(&s) || s.Tick == 0 {
		t.Fatal("publisher attached but published nothing")
	}
}

// TestMeshSteadyStateAllocsTelemetryParallel extends the pin to the phase
// pool: the observer runs on the driver between barriered epochs, so the
// sharded kernel publishes from a quiesced machine with the same zero heap
// traffic.
func TestMeshSteadyStateAllocsTelemetryParallel(t *testing.T) {
	k, _ := warmMeshWorkers(t, 4)
	pub := attachTelemetry(k)
	k.Run(100)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("telemetry-attached parallel warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
	var s telemetry.Snapshot
	if !pub.Read(&s) || s.Tick == 0 {
		t.Fatal("publisher attached but published nothing")
	}
}

// TestMeshSteadyStateAllocsParallelObserved is the full-load version: 4
// workers with both the lifecycle tracer and the online auditor attached,
// still 0 allocs/step.
func TestMeshSteadyStateAllocsParallelObserved(t *testing.T) {
	k, mesh := warmMeshWorkers(t, 4)
	tr := obs.NewTracer(1 << 14)
	mesh.SetTracer(tr)
	a := audit.New(36, audit.Options{}, nil)
	mesh.SetAuditor(a)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("observed parallel warm mesh allocated %.1f times per 500 steps, want 0", allocs)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded no events under load")
	}
	if a.FlitsChecked() == 0 {
		t.Fatal("auditor verified no flit deliveries under load")
	}
	if a.Violated() {
		t.Fatalf("healthy synthetic traffic flagged: %s", a.Report())
	}
}
