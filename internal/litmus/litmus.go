// Package litmus is the consistency-verification suite of the simulator,
// playing the role of the chip's functional-verification regressions
// (Section 4.3: load/store coherency between L1s, L2s and main memory, and
// the sequential-consistency guarantee Table 2 advertises).
//
// A litmus test is a set of tiny per-core programs (loads and stores to
// shared lines) plus a predicate over the loaded values that sequential
// consistency forbids. Each core issues its next operation only after the
// previous one completed, so any forbidden outcome would be a protocol bug
// (a stale value surviving an ordered invalidation), not a reordering
// artifact. Tests run many times with randomized start skews to explore
// interleavings.
package litmus

import (
	"fmt"

	"scorpio/internal/coherence"
	"scorpio/internal/sim"
	"scorpio/internal/system"
	"scorpio/internal/trace"
)

// Op is one memory operation of a litmus thread.
type Op struct {
	// Addr is the shared line address.
	Addr uint64
	// Write stores Value; otherwise the op is a load whose result is
	// recorded.
	Write bool
	// Value is the stored value (writes only).
	Value uint64
}

// Test is one litmus scenario.
type Test struct {
	// Name identifies the test (MP, SB, IRIW, ...).
	Name string
	// Threads holds one program per participating core.
	Threads [][]Op
	// Forbidden reports whether the observed load values violate sequential
	// consistency. loads[t] lists thread t's load results in program order.
	Forbidden func(loads [][]uint64) bool
}

// driver replays one thread on a tile, strictly in program order.
type driver struct {
	l2      *coherence.L2Controller
	ops     []Op
	next    int
	waiting bool
	startAt uint64
	Loads   []uint64
}

// Evaluate issues the next operation once the previous one completed.
func (d *driver) Evaluate(cycle uint64) {
	if d.waiting || d.next >= len(d.ops) || cycle < d.startAt {
		return
	}
	op := d.ops[d.next]
	if d.l2.CoreAccess(op.Addr, op.Write, op.Value, cycle) {
		d.waiting = true
	}
}

// Commit implements sim.Component.
func (d *driver) Commit(cycle uint64) {}

// onComplete records load results and unblocks the next op.
func (d *driver) onComplete(c coherence.Completion) {
	if !c.Write {
		d.Loads = append(d.Loads, c.Value)
	}
	d.waiting = false
	d.next++
}

func (d *driver) done() bool { return d.next >= len(d.ops) }

// Result summarises one litmus campaign.
type Result struct {
	Test       string
	Runs       int
	Violations int
	// Outcomes histograms the joined load values ("1,0|1,1" style keys).
	Outcomes map[string]int
}

// Machine names the bare machine a campaign runs on: one of the three
// snoopy machines, whose L2s carry line values.
type Machine struct {
	// Protocol is "SCORPIO" (the default), "TokenB" or "INSO".
	Protocol string
	// Width and Height set the mesh.
	Width, Height int
	// MainNetworks replicates SCORPIO's main mesh (Section 5.3); 0 or 1 is
	// the chip's single network.
	MainNetworks int
}

// bare is a built Machine: the parts a campaign drives and checks.
type bare struct {
	kernel *sim.Kernel
	l2s    []*coherence.L2Controller
	// verify returns the global-order check's first failure.
	verify func() error
}

// build assembles m without injectors; drivers attach to its L2s.
func (m Machine) build() (bare, error) {
	// The profile is irrelevant: bare machines carry no injectors.
	var prof trace.Profile
	switch m.Protocol {
	case "", "SCORPIO":
		opt := system.DefaultOptions(prof)
		opt.Core = opt.Core.WithMeshSize(m.Width, m.Height)
		opt.Core.MainNetworks = m.MainNetworks
		s, err := system.NewScorpioBare(opt)
		if err != nil {
			return bare{}, err
		}
		return bare{s.Kernel, s.L2s, s.Net.VerifyGlobalOrder}, nil
	case "TokenB", "INSO":
		if m.MainNetworks > 1 {
			return bare{}, fmt.Errorf("litmus: MainNetworks does not apply to %s", m.Protocol)
		}
		scheme := system.SchemeTokenB
		if m.Protocol == "INSO" {
			scheme = system.SchemeINSO
		}
		opt := system.DefaultBaselineOptions(scheme, prof)
		opt.Net.Width, opt.Net.Height = m.Width, m.Height
		b, err := system.NewBaselineBare(opt)
		if err != nil {
			return bare{}, err
		}
		return bare{b.Kernel, b.L2s, b.VerifyGlobalOrder}, nil
	}
	return bare{}, fmt.Errorf("litmus: unknown protocol %q (SCORPIO, TokenB or INSO)", m.Protocol)
}

// Run executes the test `runs` times on machine m with seeded random start
// skews, and reports any sequentially inconsistent outcome.
func Run(m Machine, test Test, runs int, seed uint64) (Result, error) {
	res := Result{Test: test.Name, Runs: runs, Outcomes: map[string]int{}}
	rng := sim.NewRNG(seed)
	for run := 0; run < runs; run++ {
		b, err := m.build()
		if err != nil {
			return res, err
		}
		if len(test.Threads) > len(b.l2s) {
			return res, fmt.Errorf("litmus: %s needs %d cores, machine has %d", test.Name, len(test.Threads), len(b.l2s))
		}
		drivers := make([]*driver, len(test.Threads))
		// Spread threads across the mesh so requests take different paths.
		stride := len(b.l2s) / len(test.Threads)
		for t, ops := range test.Threads {
			node := t * stride
			d := &driver{l2: b.l2s[node], ops: ops, startAt: uint64(rng.Intn(250))}
			b.l2s[node].OnComplete = d.onComplete
			drivers[t] = d
			// The driver calls straight into the node's L2, so it must share
			// that node's scheduling unit: the driver has no Idle() method,
			// which pins the whole unit active and guarantees staged core
			// accesses are always merged even with idle-skip enabled.
			b.kernel.RegisterGroup(node, d)
		}
		ok := b.kernel.RunUntil(func() bool {
			for _, d := range drivers {
				if !d.done() {
					return false
				}
			}
			return true
		}, 200_000)
		if !ok {
			return res, fmt.Errorf("litmus: %s run %d did not finish", test.Name, run)
		}
		if err := b.verify(); err != nil {
			return res, err
		}
		loads := make([][]uint64, len(drivers))
		for t, d := range drivers {
			loads[t] = d.Loads
		}
		res.Outcomes[outcomeKey(loads)]++
		if test.Forbidden != nil && test.Forbidden(loads) {
			res.Violations++
		}
	}
	return res, nil
}

// outcomeKey renders load results as a stable histogram key.
func outcomeKey(loads [][]uint64) string {
	s := ""
	for t, ls := range loads {
		if t > 0 {
			s += "|"
		}
		for i, v := range ls {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprint(v)
		}
	}
	return s
}
