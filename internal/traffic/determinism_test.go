package traffic

import (
	"runtime"
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/sim"
)

// drainRun drives a w×h mesh of synthetic nodes for 3000 loaded cycles, then
// cuts injection and drains. It fails the test unless every node drained and
// the mesh passes CheckInvariants, and returns the fold of every node's
// delivered-packet-ID digest in node order: bit-identical iff every packet
// arrived at the same sink on the same cycle in the same order.
func drainRun(t *testing.T, workers, w, h int, idleSkip bool) (idDigest uint64) {
	t.Helper()
	netCfg := noc.DefaultConfig()
	netCfg.Width, netCfg.Height = w, h
	cfg := Config{
		Net:           netCfg,
		Pattern:       UniformRandom,
		InjectionRate: 0.05,
		Flits:         3,
		Seed:          11,
	}
	mesh, err := noc.NewMesh(cfg.Net)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	rng := sim.NewRNG(cfg.Seed + 1)
	nodes := make([]*node, cfg.Net.Nodes())
	for i := range nodes {
		nodes[i] = newNode(k, mesh, cfg, i, rng.Fork(), &pktPool{})
	}
	mesh.Register(k)
	k.SetWorkers(workers)
	k.SetIdleSkip(idleSkip)

	k.Run(3000)

	// Cut injection at a fixed cycle boundary (identical in every variant)
	// and drain: queued and in-flight packets finish, nothing new starts.
	for _, n := range nodes {
		n.cfg.InjectionRate = 0
		n.issueAt = sim.NoEvent
	}
	for i := 0; i < 100 && mesh.BufferedFlits() > 0; i++ {
		k.Run(100)
	}
	k.Run(10) // let the last link-resident flits reach their sinks
	for _, n := range nodes {
		if n.term.Busy() || !n.queue.Empty() {
			t.Fatalf("node %d failed to drain (busy=%v queued=%d)", n.id, n.term.Busy(), n.queue.Len())
		}
		idDigest = (idDigest ^ n.idDigest) * 1099511628211
	}
	if n := mesh.BufferedFlits(); n != 0 {
		t.Fatalf("%d flits still buffered after drain", n)
	}
	if err := mesh.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	return idDigest
}

// TestDrainDeterminism16x16 pins delivery determinism at scale: on a
// 256-router mesh, every packet reaches the same sink on the same cycle in
// the same order across worker counts 1/2/4/8 and with the idle-skip engine
// on or off.
func TestDrainDeterminism16x16(t *testing.T) {
	if testing.Short() {
		t.Skip("ten 256-node runs exceed the -short (race-gate) budget; the full test gate covers this")
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	ref := drainRun(t, 1, 16, 16, true)
	if ref == 0 {
		t.Fatal("degenerate reference run: no packets delivered")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, skip := range []bool{true, false} {
			if workers == 1 && skip {
				continue // the reference itself
			}
			if id := drainRun(t, workers, 16, 16, skip); id != ref {
				t.Errorf("workers=%d skip=%v: packet-ID digest %#x, want %#x", workers, skip, id, ref)
			}
		}
	}
}

// TestDrainLeavesMeshEmpty is the quick (6×6, -short-safe) drain check: a
// loaded mesh that drains buffers no flits and passes CheckInvariants.
func TestDrainLeavesMeshEmpty(t *testing.T) {
	drainRun(t, 1, 6, 6, true)
}
