package traffic

import (
	"runtime"
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/sim"
)

// arenaRun drives a w×h mesh of synthetic nodes for 3000 loaded cycles, then
// cuts injection and drains, returning three witnesses:
//
//   - idDigest: the fold of every node's delivered-packet-ID digest in node
//     order — bit-identical iff every packet arrived at the same sink on the
//     same cycle in the same order;
//   - arenaDigest: Mesh.ArenaDigest(), the fold of every router's free-list
//     digest — bit-identical iff the per-router flit-handle alloc/free
//     sequences matched exactly (handles, not just packets);
//   - live: Mesh.ArenaLive(), which must be 0 after a full drain (every
//     allocated handle returned).
func arenaRun(t *testing.T, workers, w, h int, idleSkip bool) (idDigest, arenaDigest uint64, live int) {
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
	if err := mesh.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	return idDigest, mesh.ArenaDigest(), mesh.ArenaLive()
}

// TestArenaHandleDeterminism16x16 pins the arena model's strongest claim:
// on a 256-router mesh, the flit-handle alloc/free sequence of every router
// — not merely the delivered packets — is bit-identical across worker
// counts 1/2/4/8 and with the idle-skip engine on or off. Routers own their
// arenas privately and the two-phase kernel fixes the event order, so the
// handle streams may not depend on scheduling at all.
func TestArenaHandleDeterminism16x16(t *testing.T) {
	if testing.Short() {
		t.Skip("ten 256-node runs exceed the -short (race-gate) budget; the full test gate covers this")
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	refID, refArena, refLive := arenaRun(t, 1, 16, 16, true)
	if refID == 0 {
		t.Fatal("degenerate reference run: no packets delivered")
	}
	if refLive != 0 {
		t.Fatalf("reference run leaked %d arena handles", refLive)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, skip := range []bool{true, false} {
			if workers == 1 && skip {
				continue // the reference itself
			}
			id, arena, live := arenaRun(t, workers, 16, 16, skip)
			if id != refID {
				t.Errorf("workers=%d skip=%v: packet-ID digest %#x, want %#x", workers, skip, id, refID)
			}
			if arena != refArena {
				t.Errorf("workers=%d skip=%v: arena digest %#x, want %#x", workers, skip, arena, refArena)
			}
			if live != 0 {
				t.Errorf("workers=%d skip=%v: %d arena handles leaked", workers, skip, live)
			}
		}
	}
}

// TestArenaDrainReturnsAllHandles is the quick (6×6, -short-safe) leak
// check: after a loaded run drains, every router's arena must have every
// handle back on its free list. CheckInvariants enforces live==buffered per
// router throughout; this pins the end-state live==0 globally.
func TestArenaDrainReturnsAllHandles(t *testing.T) {
	_, _, live := arenaRun(t, 1, 6, 6, true)
	if live != 0 {
		t.Fatalf("%d arena handles still live after drain", live)
	}
}
