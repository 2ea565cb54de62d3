package cache

import (
	"fmt"
	"testing"

	"scorpio/internal/sim"
)

// stampArray is the array's former replacement scheme, kept as the reference
// the recency ranks must agree with: every access bumps an array-wide tick
// into the line's 64-bit stamp, and a full set evicts the valid line with the
// smallest stamp.
type stampArray struct {
	sets, ways int
	lines      []stampLine
	tick       uint64
}

type stampLine struct {
	Addr, Data uint64
	lru        uint64
	State      int32
	valid      bool
}

func newStampArray(sets, ways int) *stampArray {
	return &stampArray{sets: sets, ways: ways, lines: make([]stampLine, sets*ways)}
}

func (a *stampArray) set(addr uint64) []stampLine {
	idx := int(addr) & (a.sets - 1)
	return a.lines[idx*a.ways : (idx+1)*a.ways]
}

func (a *stampArray) Get(addr uint64) *stampLine {
	set := a.set(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			a.tick++
			set[i].lru = a.tick
			return &set[i]
		}
	}
	return nil
}

func (a *stampArray) Insert(addr uint64, state int32, data uint64) (stampLine, bool) {
	set := a.set(addr)
	a.tick++
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			set[i].State, set[i].Data, set[i].lru = state, data, a.tick
			return stampLine{}, false
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = stampLine{Addr: addr, Data: data, State: state, valid: true, lru: a.tick}
			return stampLine{}, false
		}
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ev := set[victim]
	set[victim] = stampLine{Addr: addr, Data: data, State: state, valid: true, lru: a.tick}
	return ev, true
}

func (a *stampArray) SetData(addr, data uint64) {
	set := a.set(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			set[i].Data = data
		}
	}
}

func (a *stampArray) Invalidate(addr uint64) bool {
	set := a.set(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			set[i].valid = false
			return true
		}
	}
	return false
}

// checkRanks fails unless every set's valid lines hold the ranks 0..n-1, each
// once, for n valid lines.
func checkRanks(t *testing.T, a *Array, step int) {
	t.Helper()
	seen := make([]bool, a.ways)
	for s := 0; s < a.sets; s++ {
		set := a.lines[s*a.ways : (s+1)*a.ways]
		clear(seen)
		n := 0
		for i := range set {
			if set[i].valid() {
				n++
			}
		}
		for i := range set {
			if !set[i].valid() {
				continue
			}
			r := int(set[i].rank())
			if r >= n || seen[r] {
				t.Fatalf("step %d: set %d's valid ranks are not a permutation of 0..%d: way %d holds rank %d", step, s, n-1, i, r)
			}
			seen[r] = true
		}
	}
}

// TestArrayRanksMatchStamps drives the rank array and the stamp reference
// with one random Get/Touch/Insert/SetData/Invalidate sequence per geometry,
// over an address pool twice the capacity so sets fill, evict and drain.
// Each address repeats its pool index in its top bits and states span 0-127,
// so every bit of the packed key word is exercised. Data is 0 for the first
// half of the run, so the array's data plane appears mid-run, and mostly 0
// after it, so zero fills land on slots that held values. Every answer, every
// line's data and every evicted line must agree, and after every step each
// set's ranks must stay exact.
func TestArrayRanksMatchStamps(t *testing.T) {
	const ops = 100_000
	for _, g := range []struct{ sets, ways int }{
		{1, 1}, {1, 2}, {1, 3}, {2, 4}, {4, 4}, {16, 8}, {1, 256},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			a, ref := NewArray(g.sets, g.ways), newStampArray(g.sets, g.ways)
			rng := sim.NewRNG(uint64(g.sets*1000 + g.ways))
			pool := 2 * a.Capacity()
			for step := 0; step < ops; step++ {
				addr := uint64(rng.Intn(pool))
				addr |= addr << (addrBits - 9) & addrMask // pools hold at most 512 addresses
				data := uint64(0)
				if step >= ops/2 && rng.Intn(4) == 0 {
					data = rng.Uint64()
				}
				switch op := rng.Intn(10); {
				case op < 3: // Get
					l, rl := a.Get(addr), ref.Get(addr)
					if (l == nil) != (rl == nil) {
						t.Fatalf("step %d: Get(%d) hit %v, reference %v", step, addr, l != nil, rl != nil)
					}
					if l != nil && (l.Addr() != rl.Addr || a.Data(addr) != rl.Data || l.State() != rl.State) {
						t.Fatalf("step %d: Get(%d) = %+v with data %d, reference %+v", step, addr, *l, a.Data(addr), *rl)
					}
					if l == nil && a.Data(addr) != 0 {
						t.Fatalf("step %d: absent line %d reads data %d", step, addr, a.Data(addr))
					}
				case op < 4: // Touch
					a.Touch(addr)
					ref.Get(addr)
				case op < 7: // Insert
					state := int32(rng.Intn(maxState + 1))
					ev, did := a.Insert(addr, state, data)
					rev, rdid := ref.Insert(addr, state, data)
					if did != rdid || ev.Addr() != rev.Addr || ev.Data != rev.Data || ev.State() != rev.State {
						t.Fatalf("step %d: Insert(%d) evicted %+v (%v), reference %+v (%v)", step, addr, ev, did, rev, rdid)
					}
				case op < 8: // SetData
					a.SetData(addr, data)
					ref.SetData(addr, data)
				default: // Invalidate
					if got, want := a.Invalidate(addr), ref.Invalidate(addr); got != want {
						t.Fatalf("step %d: Invalidate(%d) = %v, reference %v", step, addr, got, want)
					}
				}
				checkRanks(t, a, step)
			}
		})
	}
}

// TestArrayRejectsWideSets checks that a set wider than one byte of rank can
// count is refused at build time.
func TestArrayRejectsWideSets(t *testing.T) {
	NewArray(1, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray(1, 257) did not panic")
		}
	}()
	NewArray(1, 257)
}
