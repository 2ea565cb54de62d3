package cache

import (
	"testing"
	"testing/quick"

	"scorpio/internal/sim"
)

func TestArrayGeometry(t *testing.T) {
	a := &NewArraysBytes(1, 128*1024, 32, 4)[0] // the chip's L2
	if a.Sets() != 1024 || a.Ways() != 4 {
		t.Fatalf("L2 geometry = %dx%d, want 1024x4", a.Sets(), a.Ways())
	}
	if a.Capacity() != 4096 {
		t.Fatalf("capacity = %d lines, want 4096", a.Capacity())
	}
	small := &NewArraysBytes(1, 16*1024, 32, 4)[0]
	if small.Capacity() != 512 {
		t.Fatalf("16KB capacity = %d lines, want 512", small.Capacity())
	}
}

func TestArrayInsertLookupInvalidate(t *testing.T) {
	a := NewArray(4, 2)
	if _, evicted := a.Insert(0x100, 7, 0); evicted {
		t.Fatal("insert into empty set must not evict")
	}
	l := a.Lookup(0x100)
	if l == nil || l.State() != 7 {
		t.Fatalf("lookup returned %+v", l)
	}
	l.SetState(9)
	if a.Lookup(0x100).State() != 9 {
		t.Fatal("state mutation lost")
	}
	if !a.Invalidate(0x100) {
		t.Fatal("invalidate missed present line")
	}
	if a.Lookup(0x100) != nil {
		t.Fatal("line still present after invalidate")
	}
	if a.Invalidate(0x100) {
		t.Fatal("invalidate hit absent line")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray(1, 2) // one set, two ways
	a.Insert(1, 0, 0)
	a.Insert(2, 0, 0)
	a.Get(1) // make 1 most recent
	ev, did := a.Insert(3, 0, 0)
	if !did || ev.Addr() != 2 {
		t.Fatalf("evicted %+v (did=%v), want addr 2", ev, did)
	}
	if a.Lookup(1) == nil || a.Lookup(3) == nil {
		t.Fatal("survivors missing")
	}
}

// TestArrayLineData checks the data word's lifecycle: Insert gives a line the
// data it is passed in every slot it may take (a free way, an evicted way, an
// invalidated way, the line's own way on a reinsert), 0 included, so a
// reused slot never shows the word of the line it held before; the evicted
// copy carries the victim's data out of the array; SetData rewrites a
// resident line's data and ignores an absent one; an absent line reads 0.
func TestArrayLineData(t *testing.T) {
	a := NewArray(1, 2) // one set, two ways
	a.Insert(1, 0, 11)
	a.Insert(2, 0, 22)
	ev, did := a.Insert(3, 0, 33) // evicts 1, the LRU line
	if !did || ev.Addr() != 1 || ev.Data != 11 {
		t.Fatalf("evicted %+v (did=%v), want addr 1 with data 11", ev, did)
	}
	if got := a.Data(3); got != 33 {
		t.Fatalf("new line in a reused slot has data %d, want 33", got)
	}
	if got := a.Data(1); got != 0 {
		t.Fatalf("evicted line reads data %d, want 0", got)
	}
	a.Invalidate(2)
	if got := a.Data(2); got != 0 {
		t.Fatalf("invalidated line reads data %d, want 0", got)
	}
	a.Insert(4, 0, 0) // takes the invalidated way, which held 22
	if got := a.Data(4); got != 0 {
		t.Fatalf("line in an invalidated slot has data %d, want 0", got)
	}
	ev, did = a.Insert(5, 0, 0) // evicts 3, whose way held 33
	if !did || ev.Addr() != 3 || ev.Data != 33 {
		t.Fatalf("evicted %+v (did=%v), want addr 3 with data 33", ev, did)
	}
	if got := a.Data(5); got != 0 {
		t.Fatalf("line in an evicted slot has data %d, want 0", got)
	}
	a.Insert(5, 1, 44) // reinsert in place
	if got := a.Data(5); got != 44 {
		t.Fatalf("reinserted line has data %d, want 44", got)
	}
	a.SetData(5, 0)
	if got := a.Data(5); got != 0 {
		t.Fatalf("line reads data %d after SetData(0)", got)
	}
	a.SetData(6, 66)
	if a.Lookup(6) != nil || a.Data(6) != 0 {
		t.Fatal("SetData of an absent line made it resident or gave it data")
	}
}

// TestArrayZeroDataMakesNoPlane checks that an array that only ever stores
// 0, as every trace-driven L2 does, never makes its data plane: fills,
// evictions, reinserts and SetData of 0 allocate nothing.
func TestArrayZeroDataMakesNoPlane(t *testing.T) {
	a := NewArray(4, 2)
	addr := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		a.Insert(addr, 1, 0)
		a.SetData(addr, 0)
		a.Insert(addr, 2, 0)
		addr++ // walks the sets, so later fills evict
	})
	if allocs != 0 {
		t.Fatalf("storing 0 allocates %.1f times per run, want 0", allocs)
	}
	if a.data != nil {
		t.Fatal("an array that only stored 0 has a data plane")
	}
	if got := a.Data(addr - 1); got != 0 {
		t.Fatalf("line reads data %d, want 0", got)
	}
}

// TestArrayPlaneMadeOnce checks that the first non-zero store into an array,
// by Insert or by SetData, makes its data plane with one allocation, and
// that the stores, evictions and reinserts after it make none.
func TestArrayPlaneMadeOnce(t *testing.T) {
	for name, first := range map[string]func(a *Array){
		"Insert":  func(a *Array) { a.Insert(1, 0, 7) },
		"SetData": func(a *Array) { a.Insert(1, 0, 0); a.SetData(1, 7) },
	} {
		const runs = 20
		arrs := make([]*Array, runs+1) // AllocsPerRun makes one warm-up call
		for i := range arrs {
			arrs[i] = NewArray(4, 2)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			a := arrs[next]
			next++
			first(a)
			for addr := uint64(0); addr < 32; addr++ {
				a.Insert(addr, 0, addr)
				a.SetData(addr, 0)
				a.Insert(addr, 1, addr+1)
			}
			if a.Data(31) != 32 {
				t.Errorf("%s: line 31 reads data %d, want 32", name, a.Data(31))
			}
		})
		if allocs != 1 {
			t.Errorf("%s: an array's first non-zero store and what follows allocate %.1f times, want 1", name, allocs)
		}
	}
}

func TestArrayReinsertUpdatesState(t *testing.T) {
	a := NewArray(2, 2)
	a.Insert(4, 1, 0)
	if _, did := a.Insert(4, 2, 0); did {
		t.Fatal("reinsert must not evict")
	}
	if got := a.Lookup(4).State(); got != 2 {
		t.Fatalf("state = %d, want 2", got)
	}
	if a.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", a.Occupancy())
	}
}

func TestArrayOccupancyNeverExceedsCapacity(t *testing.T) {
	rng := sim.NewRNG(9)
	a := NewArray(8, 4)
	for i := 0; i < 5000; i++ {
		a.Insert(uint64(rng.Intn(1000)), 0, 0)
		if a.Occupancy() > a.Capacity() {
			t.Fatal("occupancy exceeded capacity")
		}
	}
}

// TestArrayPropertyInsertThenLookup draws line addresses over the array's
// whole range, below 2^48, and states over 0-127: each inserted line must be
// found with its address, state and data.
func TestArrayPropertyInsertThenLookup(t *testing.T) {
	a := &NewArraysBytes(1, 4096, 32, 2)[0]
	if err := quick.Check(func(addr, data uint64, state uint8) bool {
		addr &= addrMask
		st := int32(state & maxState)
		if data&7 != 0 { // most draws store 0, so the data plane appears mid-run
			data = 0
		}
		a.Insert(addr, st, data)
		l := a.Lookup(addr)
		return l != nil && l.State() == st && l.Addr() == addr && a.Data(addr) == data
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestArrayRejectsOutOfRange checks the key word's range contract: Insert
// and SetState panic on a line address of 2^48 or more or a state outside
// 0-127, and an address of 2^48 or more is never found, even one whose top
// bits are the valid bit's.
func TestArrayRejectsOutOfRange(t *testing.T) {
	a := NewArray(4, 2)
	a.Insert(addrMask, maxState, 1)
	a.Insert(5, 0, 2)
	for name, f := range map[string]func(){
		"Insert(2^48)":     func() { a.Insert(1<<48, 0, 0) },
		"Insert(2^64-1)":   func() { a.Insert(^uint64(0), 0, 0) },
		"Insert(state128)": func() { a.Insert(6, 128, 0) },
		"Insert(state-1)":  func() { a.Insert(6, -1, 0) },
		"SetState(128)":    func() { a.Lookup(5).SetState(128) },
		"SetState(-1)":     func() { a.Lookup(5).SetState(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	if l := a.Lookup(addrMask); l == nil || l.State() != maxState || a.Data(addrMask) != 1 {
		t.Fatalf("line at the top address = %+v, want state %d, data 1", l, maxState)
	}
	if l := a.Lookup(5); l == nil || l.State() != 0 {
		t.Fatalf("a refused SetState changed the line: %+v", l)
	}
	for _, addr := range []uint64{5 | lineValid, 5 | 1<<48, addrMask | lineValid} {
		a.SetData(addr, 3)
		if a.Lookup(addr) != nil || a.Get(addr) != nil || a.Data(addr) != 0 || a.Invalidate(addr) {
			t.Errorf("out-of-range address %#x was found", addr)
		}
	}
	if a.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", a.Occupancy())
	}
}

func TestRegionTrackerFiltering(t *testing.T) {
	rt := NewRegionTracker(4096, 32, 128) // chip parameters
	// 4KB regions of 32B lines: 128 lines per region, shift 7.
	rt.NoteFill(0x80) // region 1
	if !rt.MayBeCached(0x81) {
		t.Fatal("line in a tracked region must not be filtered")
	}
	if rt.MayBeCached(0x200) {
		t.Fatal("line in an untracked region must be filtered")
	}
	rt.NoteEvict(0x80)
	if rt.MayBeCached(0x85) {
		t.Fatal("region must disappear when its last line leaves")
	}
	if rt.Filtered != 2 || rt.Unfiltered != 1 {
		t.Fatalf("stats filtered=%d unfiltered=%d, want 2/1", rt.Filtered, rt.Unfiltered)
	}
}

func TestRegionTrackerCounts(t *testing.T) {
	rt := NewRegionTracker(4096, 32, 128)
	rt.NoteFill(0x80)
	rt.NoteFill(0x81)
	rt.NoteEvict(0x80)
	if !rt.MayBeCached(0x82) {
		t.Fatal("region with one remaining line filtered")
	}
	rt.NoteEvict(0x81)
	if rt.MayBeCached(0x82) {
		t.Fatal("empty region not filtered")
	}
}

func TestRegionTrackerSaturationIsConservative(t *testing.T) {
	rt := NewRegionTracker(4096, 32, 2)
	rt.NoteFill(0 << 7)
	rt.NoteFill(1 << 7)
	rt.NoteFill(2 << 7) // over capacity
	if !rt.Saturated() {
		t.Fatal("tracker should saturate at 3 regions with capacity 2")
	}
	// While saturated nothing may be filtered, even untracked regions.
	if !rt.MayBeCached(99 << 7) {
		t.Fatal("saturated tracker filtered a snoop")
	}
	rt.NoteEvict(2 << 7)
	if rt.Saturated() {
		t.Fatal("tracker should recover when regions drain")
	}
	if rt.MayBeCached(99 << 7) {
		t.Fatal("recovered tracker must filter untracked regions again")
	}
}

func TestRegionTrackerPropertyNeverFiltersCachedLine(t *testing.T) {
	rng := sim.NewRNG(77)
	rt := NewRegionTracker(4096, 32, 8)
	cached := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(4096))
		switch {
		case rng.Bernoulli(0.5):
			if !cached[addr] {
				cached[addr] = true
				rt.NoteFill(addr)
			}
		case cached[addr]:
			delete(cached, addr)
			rt.NoteEvict(addr)
		default:
			if cached[addr] && !rt.MayBeCached(addr) {
				t.Fatal("tracker filtered a cached line")
			}
		}
		// The safety property proper: every cached line must pass.
		probe := uint64(rng.Intn(4096))
		if cached[probe] && !rt.MayBeCached(probe) {
			t.Fatalf("iteration %d: cached line %#x filtered", i, probe)
		}
	}
}

// TestRegionTrackerMatchesCounts drives one tracker through enough distinct
// regions to grow its table several times and drains it again, checking the
// live count and every region's presence against a map after each step.
func TestRegionTrackerMatchesCounts(t *testing.T) {
	rng := sim.NewRNG(5)
	rt := NewRegionTracker(4096, 32, 4)
	want := map[uint64]int{}
	for i := 0; i < 40000; i++ {
		reg := uint64(rng.Intn(300))
		if i > 20000 || (want[reg] > 0 && rng.Bernoulli(0.4)) {
			if want[reg] > 0 {
				if want[reg]--; want[reg] == 0 {
					delete(want, reg)
				}
			}
			rt.NoteEvict(reg << 7)
		} else {
			want[reg]++
			rt.NoteFill(reg << 7)
		}
		if rt.Occupancy() != len(want) {
			t.Fatalf("step %d: occupancy %d, want %d", i, rt.Occupancy(), len(want))
		}
		if i%97 == 0 {
			for r := uint64(0); r < 300; r++ {
				if got := rt.slots[rt.find(r)] & countMask; int(got) != want[r] {
					t.Fatalf("step %d: region %d counts %d, want %d", i, r, got, want[r])
				}
			}
		}
	}
}
