package baseline

import (
	"testing"

	"scorpio/internal/sim"
)

func TestTokenBKeysAreDenseAndOrdered(t *testing.T) {
	tb := NewTokenB()
	for i := uint64(0); i < 100; i++ {
		if k := tb.AssignKey(int(i%16), i); k != i {
			t.Fatalf("key = %d, want %d", k, i)
		}
	}
	if tb.Skippable(5, 1000) {
		t.Fatal("TokenB keys are never skippable")
	}
}

func TestINSOKeySlots(t *testing.T) {
	o := NewINSO(16, 20, 8)
	if k := o.AssignKey(3, 0); k != 3 {
		t.Fatalf("node 3's first key = %d, want 3", k)
	}
	if k := o.AssignKey(3, 0); k != 3+16 {
		t.Fatalf("node 3's second key = %d, want 19", k)
	}
	if k := o.AssignKey(7, 0); k != 7 {
		t.Fatalf("node 7's first key = %d, want 7", k)
	}
}

func TestINSOExpiryCoversIdleSlots(t *testing.T) {
	o := NewINSO(4, 20, 8)
	o.AssignKey(0, 5) // node 0 is at slot 1; nodes 1..3 idle at slot 0
	// Window boundary at cycle 20 expires the laggards' gaps.
	o.Evaluate(20)
	// Node 1's slot 0 (key 1) expired, visible after the diameter delay.
	if o.Skippable(1, 20) {
		t.Fatal("expiry must not be visible before the propagation delay")
	}
	if !o.Skippable(1, 28) {
		t.Fatal("expired slot not skippable after propagation")
	}
	// Node 0's slot 0 was assigned, never skippable.
	if o.Skippable(0, 100) {
		t.Fatal("assigned slot must not be skippable")
	}
	if o.ExpiredSlots == 0 {
		t.Fatal("no slots expired")
	}
}

func TestINSOExpiryBroadcastAccounting(t *testing.T) {
	o := NewINSO(4, 20, 8)
	o.AssignKey(0, 5)
	o.Evaluate(20)
	sent := 0
	for node := 0; node < 4; node++ {
		// Expiries created at cycle 20 become consumable one cycle later
		// (uniform visibility delay; see TakeExpiryBroadcast).
		for o.TakeExpiryBroadcast(node, 21) {
			sent++
		}
	}
	if sent == 0 {
		t.Fatal("expiry events owe broadcasts")
	}
	if o.ExpiryBroadcast != uint64(sent) {
		t.Fatal("broadcast accounting inconsistent")
	}
	if o.ExpiryRatio() != float64(sent)/1.0 {
		t.Fatalf("expiry ratio = %v", o.ExpiryRatio())
	}
}

func TestINSONoExpiryMidWindow(t *testing.T) {
	o := NewINSO(4, 20, 8)
	o.AssignKey(0, 3)
	o.Evaluate(13) // not a window boundary
	if o.ExpiredSlots != 0 {
		t.Fatal("expiry outside a window boundary")
	}
}

func TestINSOSmallWindowExpiresFaster(t *testing.T) {
	fast := NewINSO(4, 20, 8)
	slow := NewINSO(4, 80, 8)
	fast.AssignKey(0, 0)
	slow.AssignKey(0, 0)
	for c := uint64(1); c <= 80; c++ {
		fast.Evaluate(c)
		slow.Evaluate(c)
	}
	// key 1 (node 1 slot 0): the 20-cycle window expires it by cycle 28,
	// the 80-cycle window only by 88.
	if !fast.Skippable(1, 50) {
		t.Fatal("fast window should have expired the slot")
	}
	if slow.Skippable(1, 50) {
		t.Fatal("slow window expired the slot too early")
	}
}

// skippableScan is Skippable by a scan of every expiry range the key's
// source has had.
func skippableScan(o *INSO, key, cycle uint64) bool {
	s := int(key % uint64(o.nodes))
	k := key / uint64(o.nodes)
	for _, r := range o.expiries[s] {
		if k >= r.from && k < r.to {
			return cycle >= r.visibleAt
		}
	}
	return false
}

// TestINSOSkippableMatchesScan checks Skippable against a scan of every
// range on random injection histories. Sources that inject between window
// boundaries leave gaps between their ranges; sources that stay idle get
// ranges that abut, so both a range's start and its end are exercised.
func TestINSOSkippableMatchesScan(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		const nodes, window, windows = 4, 8, 60
		o := NewINSO(nodes, window, 3)
		rate := 0.02 + 0.2*rng.Float64()
		for c := uint64(1); c <= window*windows; c++ {
			for n := 0; n < nodes; n++ {
				if rng.Bernoulli(rate * float64(n+1) / nodes) {
					o.AssignKey(n, c)
				}
			}
			o.Evaluate(c)
		}
		var ranges int
		for _, rs := range o.expiries {
			ranges += len(rs)
		}
		if ranges < nodes {
			t.Fatalf("trial %d: only %d expiry ranges; the history exercises nothing", trial, ranges)
		}
		var max uint64
		for _, k := range o.nextSlot {
			if k > max {
				max = k
			}
		}
		for key := uint64(0); key < (max+2)*nodes; key++ {
			for c := uint64(0); c <= window*windows+4; c += 3 {
				if got, want := o.Skippable(key, c), skippableScan(o, key, c); got != want {
					t.Fatalf("trial %d: Skippable(%d, %d) = %v, scan says %v", trial, key, c, got, want)
				}
			}
		}
	}
}
