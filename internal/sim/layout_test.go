package sim

import (
	"testing"
	"unsafe"
)

// TestUnitPacksTight pins the scheduling unit's hole-free field order. The
// driver walks []unit every cycle, so each alignment hole is multiplied by
// the unit count; cmd/layoutcheck enforces the same rule for exported
// structs but cannot reach this unexported one by reflection.
func TestUnitPacksTight(t *testing.T) {
	if s := unsafe.Sizeof(unit{}); s != 112 {
		t.Fatalf("unit is %d bytes, want 112 (107 bytes of fields, no alignment holes)", s)
	}
}

// TestActivityIsOneCacheLine pins the wake-mailbox padding: producer shards
// write one unit's Activity while others read their neighbours'; sharing a
// line would turn every wake into a false-sharing invalidation.
func TestActivityIsOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(Activity{}); s != 64 {
		t.Fatalf("Activity is %d bytes, want exactly one 64-byte cache line", s)
	}
}

// nopComponent does nothing; it only takes a scheduling unit.
type nopComponent struct{}

func (nopComponent) Evaluate(uint64) {}
func (nopComponent) Commit(uint64)   {}

// TestActivitiesKeepToOneCacheLine registers a 16×16 machine's 513 units
// and checks that no two wake mailboxes share a cache line: with the
// one-line stride, that holds when every mailbox's live words (everything
// before its pad) sit within one line.
func TestActivitiesKeepToOneCacheLine(t *testing.T) {
	live := unsafe.Offsetof(Activity{}.edges) + unsafe.Sizeof(Activity{}.edges)
	k := NewKernel()
	for i := 0; i < 513; i++ {
		var a *Activity
		if i%2 == 0 {
			a = k.Register(nopComponent{})
		} else {
			a = k.RegisterGroup(i, nopComponent{})
		}
		if off := uintptr(unsafe.Pointer(a)) % 64; off+live > 64 {
			t.Fatalf("unit %d's mailbox starts %d bytes into a cache line; its %d live bytes cross into the next", i, off, live)
		}
	}
}
