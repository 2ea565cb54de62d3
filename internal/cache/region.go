package cache

import (
	"math/bits"

	"scorpio/internal/slab"
)

// RegionTracker is the tile's snoop filter (Table 1: 4KB regions, 128
// entries): it tracks which coarse address regions have any line cached in
// the local L2, so incoming snoop requests whose region is absent can be
// answered without an L2 tag lookup (destination filtering).
//
// Each entry counts the cached lines of its region; the entry is dropped
// when the count reaches zero. The tracker is intentionally conservative:
// while more distinct regions are live than it has entries for, it stops
// filtering entirely (every snoop gets an L2 lookup), which preserves
// correctness — a region that may be cached is never filtered.
//
// The entries live in an open-addressed table (linear probing, deletion by
// backward shift, so no tombstones) of one word per slot: the region number
// above the line count's 16 bits. It is built with the first power of two
// above the capacity, so it is at most half full where filtering stops,
// and doubles when it is seven-eighths full. A machine cuts every tile's
// table from one slab (NewRegionTrackers).
type RegionTracker struct {
	slots       []uint64
	regionShift uint
	capacity    int
	live        int // regions with a cached line
	// Stats
	Filtered   uint64 // snoops answered without an L2 lookup
	Unfiltered uint64
}

// A slot packs a region number (below 2^48, as line addresses are) above
// the count of its cached lines; count 0 marks an empty slot.
const (
	countBits = 16
	countMask = 1<<countBits - 1
)

func slotRegion(slot uint64) uint64 { return slot >> countBits }

// regionSlots returns the table size built for capacity: the first power
// of two above it.
func regionSlots(capacity int) int { return 1 << bits.Len(uint(capacity)) }

// regionShift returns log2 of the lines per region.
func regionShift(regionBytes, lineBytes int) uint {
	shift := uint(0)
	for (lineBytes << shift) < regionBytes {
		shift++
	}
	return shift
}

// NewRegionTracker builds a tracker for the given region size in line
// addresses. The chip uses 4KB regions and 32B lines: 128 lines per region,
// shift 7.
func NewRegionTracker(regionBytes, lineBytes, capacity int) *RegionTracker {
	return &NewRegionTrackers(1, regionBytes, lineBytes, capacity)[0]
}

// NewRegionTrackers builds n trackers as NewRegionTracker builds one, their
// tables cut from one slab.
func NewRegionTrackers(n, regionBytes, lineBytes, capacity int) []RegionTracker {
	size := regionSlots(capacity)
	slots := slab.Make[uint64](n * size)
	rts := make([]RegionTracker, n)
	for i := range rts {
		rts[i] = RegionTracker{slots: slots.Cut(size), regionShift: regionShift(regionBytes, lineBytes), capacity: capacity}
	}
	return rts
}

func (r *RegionTracker) region(lineAddr uint64) uint64 { return lineAddr >> r.regionShift }

// home returns the region's preferred slot (Fibonacci hashing).
func (r *RegionTracker) home(region uint64) int {
	return int((region * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(len(r.slots)))))
}

// find returns the region's slot, or the empty slot where it would go.
func (r *RegionTracker) find(region uint64) int {
	mask := len(r.slots) - 1
	i := r.home(region)
	for r.slots[i] != 0 && slotRegion(r.slots[i]) != region {
		i = (i + 1) & mask
	}
	return i
}

// NoteFill records that a line of the region is now cached.
func (r *RegionTracker) NoteFill(lineAddr uint64) {
	reg := r.region(lineAddr)
	i := r.find(reg)
	if r.slots[i] == 0 {
		if reg>>(64-countBits) != 0 {
			panic("cache: region tracker given a line address of 2^48 or more")
		}
		if 8*(r.live+1) > 7*len(r.slots) {
			r.grow()
			i = r.find(reg)
		}
		r.slots[i] = reg << countBits
		r.live++
	}
	if r.slots[i]&countMask == countMask {
		panic("cache: region tracker count overflow")
	}
	r.slots[i]++
}

// NoteEvict records that a line of the region left the cache.
func (r *RegionTracker) NoteEvict(lineAddr uint64) {
	i := r.find(r.region(lineAddr))
	switch r.slots[i] & countMask {
	case 0:
		return
	case 1:
		r.remove(i)
	default:
		r.slots[i]--
	}
}

// remove empties slot i and shifts back the entries of its probe run that
// would otherwise no longer be found.
func (r *RegionTracker) remove(i int) {
	mask := len(r.slots) - 1
	r.live--
	for j := (i + 1) & mask; r.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if h := r.home(slotRegion(r.slots[j])); (j-h)&mask >= (j-i)&mask {
			r.slots[i] = r.slots[j]
			i = j
		}
	}
	r.slots[i] = 0
}

// grow doubles the table into an array of its own.
func (r *RegionTracker) grow() {
	old := r.slots
	r.slots = make([]uint64, 2*len(old))
	for _, s := range old {
		if s != 0 {
			r.slots[r.find(slotRegion(s))] = s
		}
	}
}

// Saturated reports whether the working set exceeds the tracker's capacity,
// in which case filtering is suspended.
func (r *RegionTracker) Saturated() bool { return r.live > r.capacity }

// MayBeCached reports whether a snoop for the line needs an L2 lookup; a
// false result is a guaranteed miss (filtered).
func (r *RegionTracker) MayBeCached(lineAddr uint64) bool {
	if r.Saturated() {
		r.Unfiltered++
		return true
	}
	if r.slots[r.find(r.region(lineAddr))] != 0 {
		r.Unfiltered++
		return true
	}
	r.Filtered++
	return false
}

// Occupancy returns the number of live region entries.
func (r *RegionTracker) Occupancy() int { return r.live }
