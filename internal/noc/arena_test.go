package noc

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestArenaResetInvariant pins the property the arena model rests on: a slot
// freed after arbitrary field smearing is bit-identical to a never-used slot
// when re-allocated, so no packet state leaks between the flits that share
// it (the arena-era successor of the old FlitPool reset invariant).
func TestArenaResetInvariant(t *testing.T) {
	a := NewArena(4)
	h := a.Alloc()
	f := a.At(h)
	dirty := &Packet{ID: 99, VNet: UOResp, Src: 3, Dst: 1, Flits: 5}
	*f = NewFlit(dirty, 4, 1)
	f.arrival = 123
	f.outPorts = 0b10110
	f.bypassCandidate = true
	f.lastPort = int8(East)
	f.lastDstVC = 2
	a.Free(h)

	h2 := a.Alloc()
	if h2 != h {
		t.Fatalf("LIFO free list should reuse handle %d, got %d", h, h2)
	}
	if !reflect.DeepEqual(*a.At(h2), Flit{}) {
		t.Fatalf("recycled slot not zeroed: %+v", *a.At(h2))
	}
}

// TestArenaExactCapacity verifies the sizing contract: exactly Cap handles
// can be live, the next Alloc panics (a credit-protocol violation, never a
// growth request), and freeing restores allocatability.
func TestArenaExactCapacity(t *testing.T) {
	a := NewArena(3)
	hs := []int32{a.Alloc(), a.Alloc(), a.Alloc()}
	if a.Live() != 3 || a.Cap() != 3 {
		t.Fatalf("live=%d cap=%d, want 3/3", a.Live(), a.Cap())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Alloc on a full arena did not panic")
			}
		}()
		a.Alloc()
	}()
	a.Free(hs[1])
	if h := a.Alloc(); h != hs[1] {
		t.Fatalf("expected freed handle %d back, got %d", hs[1], h)
	}
}

// TestArenaDigestTracksSequence checks StateDigest distinguishes free-list
// orders (so it can witness handle-level determinism) and agrees between two
// arenas that performed the same alloc/free sequence.
func TestArenaDigestTracksSequence(t *testing.T) {
	run := func(frees []int) uint64 {
		a := NewArena(4)
		hs := make([]int32, 4)
		for i := range hs {
			hs[i] = a.Alloc()
		}
		for _, i := range frees {
			a.Free(hs[i])
		}
		return a.StateDigest()
	}
	if run([]int{0, 1, 2, 3}) != run([]int{0, 1, 2, 3}) {
		t.Error("identical sequences produced different digests")
	}
	if run([]int{0, 1, 2, 3}) == run([]int{3, 2, 1, 0}) {
		t.Error("different free orders produced equal digests")
	}
	if run([]int{0, 1}) == run([]int{0, 1, 2}) {
		t.Error("different live counts produced equal digests")
	}
}

// TestFlitIsTwoPerCacheLine pins the flit value size the by-value link
// mailboxes and arena slab are designed around, the Link padding, and the
// ESID board entry size the routers' row scans read.
func TestFlitIsTwoPerCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(Flit{}); s != 32 {
		t.Fatalf("Flit is %d bytes, want 32 (two per 64-byte cache line)", s)
	}
	if s := unsafe.Sizeof(Link{}); s%64 != 0 {
		t.Fatalf("Link is %d bytes, want a multiple of the 64-byte cache line", s)
	}
	if s := unsafe.Sizeof(esidEntry{}); s != 16 {
		t.Fatalf("esidEntry is %d bytes, want 16 (four ESID board entries per 64-byte cache line)", s)
	}
}
