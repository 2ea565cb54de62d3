// Package tile models the processor-side of a SCORPIO tile (Section 4.1):
// the split L1 instruction/data caches of the Freescale e200 core, the
// multi-master split-transaction AHB bus between them and the L2, and the
// invalidation port the chip added to keep the write-through L1s included
// under the L2.
//
// The AHB protocol "supports a single read or write transaction at a time
// [per port], restricting the number of outstanding misses to two, one data
// cache miss and one instruction cache miss, per core" — the Tile enforces
// exactly that: one outstanding data-side and one instruction-side
// transaction.
package tile

import (
	"fmt"

	"scorpio/internal/cache"
	"scorpio/internal/coherence"
)

// Config sizes the L1s (Table 1: split 16KB I/D, 4-way, write-through).
type Config struct {
	L1Bytes   int
	LineBytes int
}

// DefaultConfig returns the chip's L1 parameters.
func DefaultConfig() Config {
	return Config{L1Bytes: 16 * 1024, LineBytes: 32}
}

// Port selects the AHB master: the data or instruction cache.
type Port int

// The two AHB masters.
const (
	Data Port = iota
	Instr
)

// Completion reports a finished core access.
type Completion struct {
	Port  Port
	Addr  uint64
	Write bool
	Value uint64
	// L1Hit reports whether the access was satisfied without the L2.
	L1Hit bool
	Issue uint64
	Done  uint64
}

// Stats counts tile activity.
type Stats struct {
	L1Hits        uint64
	WriteThroughs uint64
	Invalidations uint64 // external invalidation port activations
}

// pendingTxn is one outstanding AHB transaction.
type pendingTxn struct {
	active bool
	addr   uint64
	write  bool
	value  uint64
	issue  uint64
}

// Tile glues the split L1s to the tile's L2 controller.
type Tile struct {
	cfg  Config
	node int
	l1d  *cache.L1
	l1i  *cache.L1
	l2   *coherence.L2Controller
	// OnComplete receives finished accesses.
	OnComplete func(Completion)

	pending [2]pendingTxn
	// hits scheduled to complete after the L1 latency
	hitQ []Completion
	now  uint64 // cycle of the last Evaluate (idle-check reference)

	Stats Stats
}

// New builds a tile around an L2 controller. It chains onto the L2's
// completion callback and its L1-invalidation hook; attach any additional
// consumer before calling New.
func New(node int, cfg Config, l2 *coherence.L2Controller) *Tile {
	t := &Tile{
		cfg:  cfg,
		node: node,
		l1d:  cache.NewL1(cfg.L1Bytes, cfg.LineBytes),
		l1i:  cache.NewL1(cfg.L1Bytes, cfg.LineBytes),
		l2:   l2,
	}
	l2.OnComplete = t.l2Completed
	l2.InvalidateL1 = t.invalidate
	return t
}

// L1D exposes the data cache (tests).
func (t *Tile) L1D() *cache.L1 { return t.l1d }

// L1I exposes the instruction cache (tests).
func (t *Tile) L1I() *cache.L1 { return t.l1i }

// Busy reports whether the port's AHB transaction slot is occupied.
func (t *Tile) Busy(p Port) bool { return t.pending[p].active }

// Access issues one core access on an AHB port; addr is a line address.
// It reports false when the port already has an outstanding transaction
// (the AHB single-transaction rule) — the core retries.
func (t *Tile) Access(p Port, addr uint64, write bool, value uint64, cycle uint64) bool {
	if t.pending[p].active {
		return false
	}
	if p == Instr && write {
		panic("tile: instruction port cannot write")
	}
	l1 := t.l1for(p)
	if write {
		// Write-through: update the L1 copy if present and always forward
		// the store to the L2; the transaction completes when the L2 does.
		l1.Write(addr)
		t.Stats.WriteThroughs++
		if !t.l2.CoreAccess(addr, true, value, cycle) {
			return false
		}
		t.pending[p] = pendingTxn{active: true, addr: addr, write: true, value: value, issue: cycle}
		return true
	}
	if l1.Read(addr) {
		t.Stats.L1Hits++
		// L1 hit: completes after the L1 latency with the L2's coherent
		// value (write-through keeps them equal).
		t.hitQ = append(t.hitQ, Completion{
			Port: p, Addr: addr, L1Hit: true, Issue: cycle, Done: cycle + uint64(l1.HitLatency),
			Value: t.l2ValueOrZero(addr),
		})
		return true
	}
	if !t.l2.CoreAccess(addr, false, 0, cycle) {
		return false
	}
	t.pending[p] = pendingTxn{active: true, addr: addr, issue: cycle}
	return true
}

// Evaluate drains due L1-hit completions.
func (t *Tile) Evaluate(cycle uint64) {
	t.now = cycle
	rest := t.hitQ[:0]
	for _, c := range t.hitQ {
		if c.Done <= cycle {
			if t.OnComplete != nil {
				t.OnComplete(c)
			}
			continue
		}
		rest = append(rest, c)
	}
	t.hitQ = rest
}

// Commit implements sim.Component.
func (t *Tile) Commit(cycle uint64) {}

// Idle implements sim.Idler: the tile's only cycle work is draining ripe
// L1-hit completions; scheduled-but-future hits permit parking (the
// injector's NextEventCycle or the hit's own NextEventCycle wakes the unit).
// Pending AHB transactions complete through the L2's callback, which runs
// inside this unit.
func (t *Tile) Idle() bool {
	for i := range t.hitQ {
		if t.hitQ[i].Done <= t.now {
			return false
		}
	}
	return true
}

// NextEventCycle implements sim.NextEventer: the earliest scheduled L1-hit
// completion.
func (t *Tile) NextEventCycle(cycle uint64) uint64 {
	next := uint64(0)
	for i := range t.hitQ {
		if d := t.hitQ[i].Done; next == 0 || d < next {
			next = d
		}
	}
	if next == 0 {
		return ^uint64(0)
	}
	if next <= cycle {
		return cycle + 1
	}
	return next
}

// l2Completed receives the L2's completion and retires the matching AHB
// transaction, filling the L1 on read misses.
func (t *Tile) l2Completed(c coherence.Completion) {
	for p := range t.pending {
		txn := &t.pending[p]
		if !txn.active || txn.addr != c.Addr || txn.write != c.Write {
			continue
		}
		if !c.Write && t.l2.LineState(c.Addr) != coherence.Invalid {
			// Fill the L1 only while the L2 holds the line: a read that
			// raced a remote write completes without installing (the data
			// is delivered to the core but must not be cached), and filling
			// the L1 then would break inclusion.
			if evicted, ok := t.l1for(Port(p)).Fill(c.Addr); ok {
				_ = evicted // write-through: clean, silently dropped
			}
		}
		txn.active = false
		if t.OnComplete != nil {
			t.OnComplete(Completion{
				Port: Port(p), Addr: c.Addr, Write: c.Write, Value: c.Value,
				L1Hit: false, Issue: txn.issue, Done: c.Done,
			})
		}
		return
	}
	panic(fmt.Sprintf("tile %d: L2 completion for %#x with no pending AHB transaction", t.node, c.Addr))
}

// invalidate services the external invalidation port: snoops and L2
// evictions remove the line from both L1s (inclusion).
func (t *Tile) invalidate(addr uint64) {
	hit := false
	if t.l1d.Invalidate(addr) {
		hit = true
	}
	if t.l1i.Invalidate(addr) {
		hit = true
	}
	if hit {
		t.Stats.Invalidations++
	}
}

func (t *Tile) l1for(p Port) *cache.L1 {
	if p == Instr {
		return t.l1i
	}
	return t.l1d
}

// l2ValueOrZero reads the coherent value for an L1 hit.
func (t *Tile) l2ValueOrZero(addr uint64) uint64 {
	// The L2 is inclusive, so an L1 hit implies an L2-resident line whose
	// value the controller tracks.
	return t.l2.ValueOf(addr)
}
