package obs

import "fmt"

// Watchdog is a forward-progress monitor. Each observed cycle it reads the
// machine's cumulative delivery count; if that count stays flat for
// Threshold cycles while work is still pending — packets in flight, or L2
// misses outstanding — the run is declared stalled and Report captures a
// full machine snapshot for diagnosis, turning a silent deadlock (a hung run
// burning cycles to its limit) into an immediate, named-culprit failure.
//
// A nil *Watchdog is inert.
type Watchdog struct {
	Threshold uint64
	// progress reports the machine's cumulative deliveries and whether any
	// work is pending: packets in the network or endpoint queues, or L2
	// misses outstanding.
	progress func() (delivered uint64, pending bool)
	// snapshot renders the full machine state (every VC's head flit,
	// credit counts, NIC ordering state, outstanding misses) when a stall
	// is detected.
	snapshot func() string

	lastDelivered uint64
	lastChange    uint64
	primed        bool
	stalled       bool
	report        string
	stallCycle    uint64
}

// NewWatchdog builds a monitor that trips after threshold cycles without
// progress. Returns nil (inert) if threshold is 0.
func NewWatchdog(threshold uint64, progress func() (uint64, bool), snapshot func() string) *Watchdog {
	if threshold == 0 {
		return nil
	}
	return &Watchdog{Threshold: threshold, progress: progress, snapshot: snapshot}
}

// Observe checks progress at the given cycle. Safe on nil. Once stalled,
// further observations are no-ops; the snapshot is taken exactly once, at
// detection time.
func (w *Watchdog) Observe(cycle uint64) {
	if w == nil || w.stalled {
		return
	}
	delivered, pending := w.progress()
	if !w.primed || delivered != w.lastDelivered {
		w.primed = true
		w.lastDelivered = delivered
		w.lastChange = cycle
		return
	}
	if !pending {
		// Nothing in flight and no miss waiting: quiescence, not a stall
		// (the cores may simply be computing between misses).
		w.lastChange = cycle
		return
	}
	if cycle-w.lastChange >= w.Threshold {
		w.stalled = true
		w.stallCycle = cycle
		snap := "(no snapshot available)"
		if w.snapshot != nil {
			snap = w.snapshot()
		}
		w.report = fmt.Sprintf(
			"watchdog: no ejections for %d cycles (cycle %d, %d delivered) with packets in flight or misses outstanding\n%s",
			cycle-w.lastChange, cycle, delivered, snap)
	}
}

// Stalled reports whether a stall has been detected. Safe on nil.
func (w *Watchdog) Stalled() bool {
	return w != nil && w.stalled
}

// Report returns the stall diagnosis ("" if no stall). Safe on nil.
func (w *Watchdog) Report() string {
	if w == nil {
		return ""
	}
	return w.report
}

// StallCycle returns the cycle at which the stall was detected.
func (w *Watchdog) StallCycle() uint64 {
	if w == nil {
		return 0
	}
	return w.stallCycle
}
