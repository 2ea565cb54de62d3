package litmus

import (
	"fmt"

	"scorpio/internal/coherence"
	"scorpio/internal/sim"
)

// MutexResult summarises a Peterson mutual-exclusion campaign.
type MutexResult struct {
	Rounds    int
	Final     uint64
	Expected  uint64
	SpinLoops uint64
	Cycles    uint64
}

// Peterson's algorithm needs only loads and stores, so it runs unmodified on
// a sequentially consistent machine — the chip's consistency model (Table 2).
// Two threads increment a shared counter `rounds` times each inside the
// critical section; any coherence/ordering bug shows up as a lost update.
// This is the simulator's analog of the chip's lock/barrier regression tests
// (Section 4.3).
const (
	addrFlag0   = uint64(0x9000)
	addrFlag1   = uint64(0x9001)
	addrTurn    = uint64(0x9002)
	addrCounter = uint64(0x9003)
)

// mutexState is the Peterson state machine.
type mutexState int

const (
	msSetFlag mutexState = iota
	msSetTurn
	msLoadOtherFlag
	msLoadTurn
	msLoadCounter
	msStoreCounter
	msClearFlag
	msDone
)

// mutexDriver runs one Peterson contender as a cycle-driven state machine.
type mutexDriver struct {
	l2      *coherence.L2Controller
	id      int // 0 or 1
	rounds  int
	state   mutexState
	waiting bool
	// loaded values from the two spin loads and the counter load
	otherFlag uint64
	turn      uint64
	counter   uint64
	// Stats
	spins uint64
	done  bool
}

func (d *mutexDriver) myFlag() uint64 {
	if d.id == 0 {
		return addrFlag0
	}
	return addrFlag1
}

func (d *mutexDriver) theirFlag() uint64 {
	if d.id == 0 {
		return addrFlag1
	}
	return addrFlag0
}

// Evaluate advances the state machine, one memory operation at a time.
func (d *mutexDriver) Evaluate(cycle uint64) {
	if d.waiting || d.done {
		return
	}
	issue := func(addr uint64, write bool, value uint64) {
		if d.l2.CoreAccess(addr, write, value, cycle) {
			d.waiting = true
		}
	}
	switch d.state {
	case msSetFlag:
		issue(d.myFlag(), true, 1)
	case msSetTurn:
		issue(addrTurn, true, uint64(1-d.id))
	case msLoadOtherFlag:
		issue(d.theirFlag(), false, 0)
	case msLoadTurn:
		issue(addrTurn, false, 0)
	case msLoadCounter:
		issue(addrCounter, false, 0)
	case msStoreCounter:
		issue(addrCounter, true, d.counter+1)
	case msClearFlag:
		issue(d.myFlag(), true, 0)
	}
}

func (d *mutexDriver) Commit(cycle uint64) {}

// onComplete consumes the finished operation and picks the next state.
func (d *mutexDriver) onComplete(c coherence.Completion) {
	d.waiting = false
	switch d.state {
	case msSetFlag:
		d.state = msSetTurn
	case msSetTurn:
		d.state = msLoadOtherFlag
	case msLoadOtherFlag:
		d.otherFlag = c.Value
		d.state = msLoadTurn
	case msLoadTurn:
		d.turn = c.Value
		if d.otherFlag == 1 && d.turn == uint64(1-d.id) {
			// Contended: spin back to re-reading the other's flag.
			d.spins++
			d.state = msLoadOtherFlag
			return
		}
		d.state = msLoadCounter
	case msLoadCounter:
		d.counter = c.Value
		d.state = msStoreCounter
	case msStoreCounter:
		d.state = msClearFlag
	case msClearFlag:
		d.rounds--
		if d.rounds == 0 {
			d.done = true
			d.state = msDone
			return
		}
		d.state = msSetFlag
	}
}

// RunMutex races two Peterson contenders for `rounds` critical sections each
// on machine m and returns the final counter (Expected = 2*rounds under
// correct mutual exclusion).
func RunMutex(m Machine, rounds int, seed uint64) (MutexResult, error) {
	b, err := m.build()
	if err != nil {
		return MutexResult{}, err
	}
	// Place the contenders far apart for maximal transfer latency; the seed
	// staggers their starts to vary the interleaving.
	nodes := [2]int{0, len(b.l2s) - 1}
	drivers := [2]*mutexDriver{}
	for i := 0; i < 2; i++ {
		d := &mutexDriver{l2: b.l2s[nodes[i]], id: i, rounds: rounds}
		b.l2s[nodes[i]].OnComplete = d.onComplete
		drivers[i] = d
		// Share the node's scheduling unit (see Run): the driver calls the
		// L2 directly and has no Idle(), keeping the unit permanently active.
		b.kernel.RegisterGroup(nodes[i], d)
	}
	// Stagger thread 1 by a seed-derived offset.
	b.kernel.Run(sim.NewRNG(seed).Uint64() % 64)
	ok := b.kernel.RunUntil(func() bool { return drivers[0].done && drivers[1].done }, 5_000_000)
	if !ok {
		return MutexResult{}, fmt.Errorf("litmus: Peterson contenders did not finish (livelock?)")
	}
	if err := b.verify(); err != nil {
		return MutexResult{}, err
	}
	return MutexResult{
		Rounds:    rounds,
		Final:     finalValue(b.l2s, addrCounter),
		Expected:  uint64(2 * rounds),
		SpinLoops: drivers[0].spins + drivers[1].spins,
		Cycles:    b.kernel.Cycle(),
	}, nil
}

// finalValue reads addr's value from whichever cache holds it.
func finalValue(l2s []*coherence.L2Controller, addr uint64) uint64 {
	final := uint64(0)
	for _, l2 := range l2s {
		if l2.LineState(addr) != coherence.Invalid {
			final = l2.ValueOf(addr)
		}
	}
	return final
}
