package litmus

import (
	"fmt"

	"scorpio/internal/coherence"
)

// Lamport's bakery algorithm generalises the mutual-exclusion verification
// to N contenders using only loads and stores — a heavier §4.3-style stress
// of coherence + sequential consistency than the two-thread Peterson lock.
const (
	bakeryEntering = uint64(0xA000) // entering[i] = bakeryEntering + i
	bakeryNumber   = uint64(0xA100) // number[i]   = bakeryNumber + i
	bakeryCounter  = uint64(0xA200)
)

// bakery phases.
type bakeryState int

const (
	bkSetEntering bakeryState = iota
	bkScanMax                 // read number[j] for all j
	bkStoreNumber             // number[i] = 1 + max
	bkClearEntering
	bkWaitEntering // spin until entering[j] == 0
	bkWaitNumber   // spin until number[j]==0 or (number[j],j) >= (number[i],i)
	bkLoadCounter
	bkStoreCounter
	bkRelease // number[i] = 0
	bkIdle
)

// bakeryDriver is one contender's state machine.
type bakeryDriver struct {
	l2      *coherence.L2Controller
	id      int
	n       int
	rounds  int
	state   bakeryState
	waiting bool
	j       int    // scan index
	max     uint64 // running max of numbers
	myNum   uint64
	counter uint64
	spins   uint64
	done    bool
}

func (d *bakeryDriver) Evaluate(cycle uint64) {
	if d.waiting || d.done {
		return
	}
	issue := func(addr uint64, write bool, value uint64) {
		if d.l2.CoreAccess(addr, write, value, cycle) {
			d.waiting = true
		}
	}
	switch d.state {
	case bkSetEntering:
		issue(bakeryEntering+uint64(d.id), true, 1)
	case bkScanMax:
		issue(bakeryNumber+uint64(d.j), false, 0)
	case bkStoreNumber:
		issue(bakeryNumber+uint64(d.id), true, d.max+1)
	case bkClearEntering:
		issue(bakeryEntering+uint64(d.id), true, 0)
	case bkWaitEntering:
		issue(bakeryEntering+uint64(d.j), false, 0)
	case bkWaitNumber:
		issue(bakeryNumber+uint64(d.j), false, 0)
	case bkLoadCounter:
		issue(bakeryCounter, false, 0)
	case bkStoreCounter:
		issue(bakeryCounter, true, d.counter+1)
	case bkRelease:
		issue(bakeryNumber+uint64(d.id), true, 0)
	}
}

func (d *bakeryDriver) Commit(cycle uint64) {}

func (d *bakeryDriver) onComplete(c coherence.Completion) {
	d.waiting = false
	switch d.state {
	case bkSetEntering:
		d.j, d.max = 0, 0
		d.state = bkScanMax
	case bkScanMax:
		if c.Value > d.max {
			d.max = c.Value
		}
		d.j++
		if d.j == d.n {
			d.state = bkStoreNumber
		}
	case bkStoreNumber:
		d.myNum = d.max + 1
		d.state = bkClearEntering
	case bkClearEntering:
		d.j = 0
		d.advanceWaitLoop()
	case bkWaitEntering:
		if c.Value != 0 {
			d.spins++
			return // re-read entering[j]
		}
		d.state = bkWaitNumber
	case bkWaitNumber:
		num := c.Value
		if num != 0 && (num < d.myNum || (num == d.myNum && d.j < d.id)) {
			d.spins++
			return // j goes first; re-read number[j]
		}
		d.j++
		d.advanceWaitLoop()
	case bkLoadCounter:
		d.counter = c.Value
		d.state = bkStoreCounter
	case bkStoreCounter:
		d.state = bkRelease
	case bkRelease:
		d.rounds--
		if d.rounds == 0 {
			d.done = true
			d.state = bkIdle
			return
		}
		d.state = bkSetEntering
	}
}

// advanceWaitLoop steps the per-contender wait loop, skipping self.
func (d *bakeryDriver) advanceWaitLoop() {
	if d.j == d.id {
		d.j++
	}
	if d.j >= d.n {
		d.state = bkLoadCounter
		return
	}
	d.state = bkWaitEntering
}

// BakeryResult summarises an N-thread bakery campaign.
type BakeryResult struct {
	Threads   int
	Rounds    int
	Final     uint64
	Expected  uint64
	SpinLoops uint64
	Cycles    uint64
}

// RunBakery races `threads` bakery contenders for `rounds` critical sections
// each on machine m.
func RunBakery(m Machine, threads, rounds int, seed uint64) (BakeryResult, error) {
	b, err := m.build()
	if err != nil {
		return BakeryResult{}, err
	}
	if threads > len(b.l2s) {
		return BakeryResult{}, fmt.Errorf("litmus: %d threads exceed %d cores", threads, len(b.l2s))
	}
	stride := len(b.l2s) / threads
	drivers := make([]*bakeryDriver, threads)
	for i := 0; i < threads; i++ {
		d := &bakeryDriver{l2: b.l2s[i*stride], id: i, n: threads, rounds: rounds}
		b.l2s[i*stride].OnComplete = d.onComplete
		drivers[i] = d
		// Share the node's scheduling unit (see Run): the driver calls the
		// L2 directly and has no Idle(), keeping the unit permanently active.
		b.kernel.RegisterGroup(i*stride, d)
	}
	ok := b.kernel.RunUntil(func() bool {
		for _, d := range drivers {
			if !d.done {
				return false
			}
		}
		return true
	}, 20_000_000)
	if !ok {
		return BakeryResult{}, fmt.Errorf("litmus: bakery contenders did not finish")
	}
	if err := b.verify(); err != nil {
		return BakeryResult{}, err
	}
	res := BakeryResult{
		Threads: threads, Rounds: rounds, Final: finalValue(b.l2s, bakeryCounter),
		Expected: uint64(threads * rounds), Cycles: b.kernel.Cycle(),
	}
	for _, d := range drivers {
		res.SpinLoops += d.spins
	}
	return res, nil
}
