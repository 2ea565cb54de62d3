package cache

// L1 models the core's private split I/D level-1 cache (Table 1: 4-way
// set-associative, write-through, 16KB each). Because it is write-through
// and inclusive under the L2, coherence only ever needs to invalidate L1
// lines via the invalidation port the chip added to the core (Section 4.1);
// no dirty data lives here.
type L1 struct {
	arr        *Array
	HitLatency int
	// Stats
	Reads         uint64
	Writes        uint64
	ReadMisses    uint64
	Invalidations uint64
}

// NewL1 builds a 16KB 4-way L1 with the chip's 2-cycle access latency.
func NewL1(capacityBytes, lineBytes int) *L1 {
	return &L1{arr: NewArrayBytes(capacityBytes, lineBytes, 4), HitLatency: 2}
}

// Read looks up a line; it reports whether the access hit. On miss the
// caller fetches through the L2 and calls Fill.
func (l *L1) Read(lineAddr uint64) bool {
	l.Reads++
	if l.arr.Get(lineAddr) != nil {
		return true
	}
	l.ReadMisses++
	return false
}

// Write performs a write-through store: the line is updated if present (no
// write-allocate) and the caller always forwards the store to the L2.
func (l *L1) Write(lineAddr uint64) {
	l.Writes++
	l.arr.Touch(lineAddr)
}

// Fill installs a line after an L2 fetch and returns the evicted line
// address (ok reports whether an eviction happened). Write-through means the
// eviction needs no writeback.
func (l *L1) Fill(lineAddr uint64) (evictedAddr uint64, ok bool) {
	ev, did := l.arr.Insert(lineAddr, 0, 0)
	return ev.Addr(), did
}

// Invalidate services the external invalidation port: the L2 calls it when
// a snoop or an L2 eviction removes a line (inclusion).
func (l *L1) Invalidate(lineAddr uint64) bool {
	if l.arr.Invalidate(lineAddr) {
		l.Invalidations++
		return true
	}
	return false
}

// Present reports whether a line is cached (for tests).
func (l *L1) Present(lineAddr uint64) bool { return l.arr.Lookup(lineAddr) != nil }
