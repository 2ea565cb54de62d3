// Package cache provides the storage structures of a SCORPIO tile: a generic
// set-associative array with LRU replacement (used by the L2 caches and the
// directory caches of the baselines) and the region tracker snoop filter of
// [Moshovos, ISCA 2005] used for destination filtering.
package cache

import (
	"fmt"

	"scorpio/internal/slab"
)

// Line is one cache entry: one key word that packs the line address (bits
// 0-47), the caller's state (bits 48-54), the valid bit (55) and the line's
// recency rank within its set (bits 56-63). It is 8 bytes, so the chip's
// 4-way set takes 32, half a host cache line, and a lookup tests each way
// with one masked compare. The line's data is not in it: the Array keeps
// data in a plane beside its lines (Data, SetData). Line addresses must be
// below 2^48 and states within 0-127: Insert and SetState panic otherwise.
type Line struct {
	key uint64
}

// The key word's fields.
const (
	addrBits   = 48
	addrMask   = 1<<addrBits - 1
	stateShift = addrBits
	maxState   = 127
	stateMask  = maxState << stateShift
	lineValid  = 1 << 55
	tagMask    = addrMask | lineValid // the bits a lookup compares
	rankShift  = 56
	rankOne    = 1 << rankShift
	rankMask   = 0xff << rankShift
)

// Addr returns the line address.
func (l Line) Addr() uint64 { return l.key & addrMask }

// State returns the caller's state value.
func (l Line) State() int32 { return int32(l.key & stateMask >> stateShift) }

// SetState replaces the caller's state value; it panics outside 0-127.
func (l *Line) SetState(state int32) { l.key = l.key&^stateMask | stateBits(state) }

func (l Line) valid() bool { return l.key&lineValid != 0 }

// rank is the line's recency rank among its set's valid lines, 0 = most
// recent.
func (l Line) rank() uint64 { return l.key >> rankShift }

func stateBits(state int32) uint64 {
	if state < 0 || state > maxState {
		panic(fmt.Sprintf("cache: state %d outside 0-%d (the state field is 7 bits)", state, maxState))
	}
	return uint64(state) << stateShift
}

// Array is a set-associative array indexed by line address, with exact LRU
// replacement within each set. The zero state value is reserved for
// "invalid is fine but explicit": callers define their own state encodings.
//
// Each set keeps its valid lines' ranks at exactly 0..n-1 for n valid lines,
// 0 the most recent, so a full set's victim (rank ways-1) is the least
// recently used line. A fresh array is all invalid with every rank 0, which
// already satisfies that rule, so building one writes nothing.
//
// Each slot's data word (a line's data, modelled as one word) lives in a
// plane parallel to the lines, made at the first non-zero value stored into
// the array: an array that only ever holds 0, as in every trace-driven run,
// never makes one. Data belongs to the slot. A fill writes its value into
// the slot the line takes, 0 included once the plane exists; an eviction
// returns the victim's data; an absent or invalid line reads 0.
type Array struct {
	sets  int
	ways  int
	lines []Line
	data  []uint64 // parallel to lines; nil until a non-zero store
}

// Victim is a line Insert evicted, with the data its slot held.
type Victim struct {
	Line
	Data uint64
}

// NewArray builds an array with the given geometry. Sets must be a power of
// two, and a set holds at most 256 ways (one byte of rank).
func NewArray(sets, ways int) *Array {
	return &newArrays(1, sets, ways)[0]
}

// newArrays builds n arrays of one geometry, their lines cut from one slab.
func newArrays(n, sets, ways int) []Array {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: invalid geometry %d sets x %d ways (sets must be a power of two)", sets, ways))
	}
	if ways > 256 {
		panic(fmt.Sprintf("cache: %d ways, at most 256 (the recency rank is one byte)", ways))
	}
	lines := slab.Make[Line](n * sets * ways)
	arrs := make([]Array, n)
	for i := range arrs {
		arrs[i] = Array{sets: sets, ways: ways, lines: lines.Cut(sets * ways)}
	}
	return arrs
}

// NewArraysBytes builds n arrays, each sized for capacityBytes with the given
// line size and associativity (the chip's L2: 128KB, 32B lines, 4 ways → 1024
// sets), one machine's worth of tiles: the arrays are one slice, their lines
// one slab.
func NewArraysBytes(n, capacityBytes, lineBytes, ways int) []Array {
	sets := capacityBytes / lineBytes / ways
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return newArrays(n, p, ways)
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// Capacity returns the number of lines the array can hold.
func (a *Array) Capacity() int { return a.sets * a.ways }

// base returns the index in lines of the first way of addr's set.
func (a *Array) base(addr uint64) int { return (int(addr) & (a.sets - 1)) * a.ways }

func (a *Array) set(addr uint64) []Line {
	b := a.base(addr)
	return a.lines[b : b+a.ways]
}

// Lookup finds the line for addr; it returns nil on miss and does not touch
// LRU state (use Touch or Get for accesses).
func (a *Array) Lookup(addr uint64) *Line {
	set := a.set(addr)
	if i := find(set, addr); i >= 0 {
		return &set[i]
	}
	return nil
}

// find returns the way holding addr as a valid line, or -1. An address of
// 2^48 or more is never present.
func find(set []Line, addr uint64) int {
	if addr > addrMask {
		return -1
	}
	tag := addr | lineValid
	for i := range set {
		if set[i].key&tagMask == tag {
			return i
		}
	}
	return -1
}

// promote makes set[i], a valid line, the most recent of its set: every
// valid line more recent than it ages by one.
func promote(set []Line, i int) {
	r := set[i].rank()
	for j := range set {
		if set[j].valid() && set[j].rank() < r {
			set[j].key += rankOne
		}
	}
	set[i].key &^= rankMask
}

// Get looks up addr and, on a hit, makes the line the most recent of its set.
func (a *Array) Get(addr uint64) *Line {
	set := a.set(addr)
	i := find(set, addr)
	if i < 0 {
		return nil
	}
	promote(set, i)
	return &set[i]
}

// Touch refreshes the LRU position of addr if present.
func (a *Array) Touch(addr uint64) { a.Get(addr) }

// Insert places addr with the given state and data, evicting the LRU line of
// the set if necessary. It returns the evicted line with its data (valid
// only if eviction happened). It panics on a line address of 2^48 or more or
// a state outside 0-127.
func (a *Array) Insert(addr uint64, state int32, data uint64) (evicted Victim, didEvict bool) {
	if addr > addrMask {
		panic(fmt.Sprintf("cache: line address %#x needs more than %d bits", addr, addrBits))
	}
	st := stateBits(state)
	b := a.base(addr)
	set := a.lines[b : b+a.ways]
	// Reuse an existing entry or the first free way; otherwise the victim
	// is the valid line of highest rank.
	free, oldest, n := -1, 0, 0
	for i := range set {
		switch {
		case !set[i].valid():
			if free < 0 {
				free = i
			}
		case set[i].Addr() == addr:
			set[i].key = set[i].key&^stateMask | st
			a.store(b+i, data)
			promote(set, i)
			return Victim{}, false
		default:
			n++
			if set[i].rank() > set[oldest].rank() {
				oldest = i
			}
		}
	}
	way := free
	if way < 0 {
		way, n = oldest, n-1
		evicted, didEvict = Victim{Line: set[way]}, true
		if a.data != nil {
			evicted.Data = a.data[b+way]
		}
	}
	// The new line enters below the n lines that stay and is promoted over
	// them.
	set[way] = Line{key: addr | st | lineValid | uint64(n)<<rankShift}
	a.store(b+way, data)
	promote(set, way)
	return evicted, didEvict
}

// slot returns the index in lines of the resident line addr, or -1.
func (a *Array) slot(addr uint64) int {
	b := a.base(addr)
	if i := find(a.lines[b:b+a.ways], addr); i >= 0 {
		return b + i
	}
	return -1
}

// Data returns the data of the resident line addr, 0 if addr is absent.
func (a *Array) Data(addr uint64) uint64 {
	if a.data == nil {
		return 0
	}
	if i := a.slot(addr); i >= 0 {
		return a.data[i]
	}
	return 0
}

// SetData replaces the data of the resident line addr; it does nothing if
// addr is absent. Storing 0 into an array without a plane looks nothing up.
func (a *Array) SetData(addr, data uint64) {
	if a.data == nil && data == 0 {
		return
	}
	if i := a.slot(addr); i >= 0 {
		a.store(i, data)
	}
}

// store writes data into slot i, making the plane at the first non-zero
// value.
func (a *Array) store(i int, data uint64) {
	if a.data == nil {
		if data == 0 {
			return
		}
		a.data = make([]uint64, len(a.lines))
	}
	a.data[i] = data
}

// Invalidate removes addr from the array and reports whether it was present.
// Every valid line less recent than it gets younger by one, closing the gap
// in the set's ranks.
func (a *Array) Invalidate(addr uint64) bool {
	set := a.set(addr)
	i := find(set, addr)
	if i < 0 {
		return false
	}
	set[i].key &^= lineValid
	r := set[i].rank()
	for j := range set {
		if set[j].valid() && set[j].rank() > r {
			set[j].key -= rankOne
		}
	}
	return true
}

// Occupancy returns the number of valid lines.
func (a *Array) Occupancy() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].valid() {
			n++
		}
	}
	return n
}

// ForEach calls fn for every valid line.
func (a *Array) ForEach(fn func(l *Line)) {
	for i := range a.lines {
		if a.lines[i].valid() {
			fn(&a.lines[i])
		}
	}
}
