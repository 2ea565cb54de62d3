// Package telemetry is the simulator's live-export layer: an embeddable
// HTTP exporter any run can attach with one flag, serving the observability
// layer's sampled metrics while the simulation is still in flight —
// OpenMetrics text for scrapers and live dashboards (cmd/scorpiotop polls
// it), an on-demand deep snapshot, and the stdlib pprof mux.
//
// The design constraint is the same zero-cost discipline as the rest of
// internal/obs, but for a *concurrent* reader: HTTP handlers run on their own
// goroutines while the kernel steps, so the hot path may not take locks and
// may not allocate. The bridge is a single published snapshot page:
//
//   - The driver (the kernel's post-commit observer, which already runs the
//     metrics sampler) writes each sample into a fixed set of atomic words
//     guarded by a seqlock-style version counter. Every store is to a
//     preallocated word: publishing allocates nothing and adds no lock to the
//     evaluate/commit path.
//   - Readers copy the page out under the version counter, retrying the rare
//     torn read. Rendering (OpenMetrics text) happens entirely on the HTTP
//     goroutine, where allocation is free.
//   - Expensive state that only the driver may touch (the watchdog-style
//     network snapshot, the activity report, the perf RunReport-so-far) is
//     exported on demand: a handler raises a request flag, and the driver
//     fulfils it between cycles. The per-step cost of that door is one atomic
//     load.
//
// A publisher with no server, or a server with no clients, costs a handful of
// atomic stores per sample tick — the ≤2% no-client overhead guard in
// internal/system (SCORPIO_TELEMETRY_GUARD) pins it.
package telemetry

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a published series for the OpenMetrics exposition.
type Kind uint8

// Series kinds.
const (
	// Counter is a cumulative, monotonically non-decreasing count.
	Counter Kind = iota
	// Gauge is an instantaneous value that can move either way.
	Gauge
)

// String names the kind as the OpenMetrics TYPE line expects.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Series describes one published column: its exposition name (snake_case,
// without the "scorpio_" prefix or a counter's "_total" suffix — the
// exposition writer adds both), kind, and HELP text.
type Series struct {
	Name string
	Kind Kind
	Help string
}

// DefaultInterval is the sample period in cycles when the attach options
// leave it zero: frequent enough for a live dashboard at simulator speeds of
// ~10^5..10^7 cycles/s, sparse enough to stay invisible in the overhead
// guard.
const DefaultInterval = 1024

// Snapshot is one consistent copy of the published page, filled by
// Publisher.Read. The slices are owned by the caller and reused across
// reads.
type Snapshot struct {
	Cycle uint64
	Tick  uint64
	Vals  []float64 // one per Series
	Heat  []float64 // row-major heatW×heatH router utilization
}

// Publisher is the driver-side half of the exporter: a fixed page of atomic
// words the sampler publishes into, plus the deep-snapshot request door.
// Create one per run with NewPublisher; the HTTP server reads it
// concurrently.
type Publisher struct {
	series   []Series
	interval uint64
	heatW    int
	heatH    int

	// The seqlock page. seq is odd while a publish is in flight; every field
	// is an atomic word, so torn reads are impossible at the word level and
	// cross-field consistency comes from retrying on a changed seq.
	seq   atomic.Uint64
	cycle atomic.Uint64
	tick  atomic.Uint64
	vals  []atomic.Uint64 // float64 bits
	heat  []atomic.Uint64 // float64 bits

	// Deep-snapshot door: a handler stores 1 into deepReq and waits on
	// deepCh; the driver's ServeDeep fulfils between cycles. deepMu
	// serializes HTTP requesters so one fulfilment pairs with one waiter.
	deepFn  func(cycle uint64) *DeepSnapshot
	deepCh  chan *DeepSnapshot
	deepMu  sync.Mutex
	deepReq atomic.Uint32
}

// NewPublisher returns a publisher for the given schema. interval is the
// sample period in cycles (DefaultInterval when 0); heatW×heatH sizes the
// router-utilization grid (0×0 disables it).
func NewPublisher(series []Series, interval uint64, heatW, heatH int) *Publisher {
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Publisher{
		series:   series,
		interval: interval,
		heatW:    heatW,
		heatH:    heatH,
		vals:     make([]atomic.Uint64, len(series)),
		heat:     make([]atomic.Uint64, heatW*heatH),
		deepCh:   make(chan *DeepSnapshot, 1),
	}
}

// Series returns the published schema.
func (p *Publisher) Series() []Series { return p.series }

// HeatDims returns the utilization grid dimensions.
func (p *Publisher) HeatDims() (w, h int) { return p.heatW, p.heatH }

// Due reports whether a sample should be published at cycle. Safe on nil.
func (p *Publisher) Due(cycle uint64) bool {
	return p != nil && cycle%p.interval == 0
}

// Publish writes one sample into the page. Driver-side only (the kernel's
// post-commit observer); it never blocks and never allocates. vals must have
// len(Series()) entries; heat may be nil to keep the previous grid, else
// heatW*heatH entries.
func (p *Publisher) Publish(cycle uint64, vals, heat []float64) {
	p.seq.Add(1) // odd: write in progress
	p.cycle.Store(cycle)
	p.tick.Add(1)
	for i := range p.vals {
		v := 0.0
		if i < len(vals) {
			v = vals[i]
		}
		p.vals[i].Store(math.Float64bits(v))
	}
	if heat != nil {
		n := len(p.heat)
		if len(heat) < n {
			n = len(heat)
		}
		for i := 0; i < n; i++ {
			p.heat[i].Store(math.Float64bits(heat[i]))
		}
	}
	p.seq.Add(1) // even: stable
}

// Read copies a consistent snapshot of the page into s, growing s's slices
// as needed (they are reused on subsequent calls). It reports false only if
// the page never stabilized across the retry budget — practically impossible,
// since publishes are microseconds apart at the sampler's cadence.
func (p *Publisher) Read(s *Snapshot) bool {
	if cap(s.Vals) < len(p.vals) {
		s.Vals = make([]float64, len(p.vals))
	}
	s.Vals = s.Vals[:len(p.vals)]
	if cap(s.Heat) < len(p.heat) {
		s.Heat = make([]float64, len(p.heat))
	}
	s.Heat = s.Heat[:len(p.heat)]
	for attempt := 0; attempt < 1024; attempt++ {
		v1 := p.seq.Load()
		if v1%2 != 0 {
			runtime.Gosched()
			continue
		}
		s.Cycle = p.cycle.Load()
		s.Tick = p.tick.Load()
		for i := range p.vals {
			s.Vals[i] = math.Float64frombits(p.vals[i].Load())
		}
		for i := range p.heat {
			s.Heat[i] = math.Float64frombits(p.heat[i].Load())
		}
		if p.seq.Load() == v1 {
			return true
		}
	}
	return false
}

// DeepSnapshot is the on-demand /snapshot payload: everything only the
// driving goroutine may assemble, rendered between cycles when a handler
// asks. Building one allocates freely — it only happens per request. The
// sampled series live on /metrics alone.
type DeepSnapshot struct {
	Cycle  uint64 `json:"cycle"`
	WallNs int64  `json:"wall_ns"`
	Label  string `json:"label,omitempty"`
	// Network is the watchdog-style network snapshot (oldest stuck flit,
	// credit state, per-NIC ordering dumps).
	Network string `json:"network_snapshot"`
	// Activity is the kernel's activity-engine report (parked units, the next
	// due wake, wakes by edge).
	Activity string `json:"activity_report"`
	// Perf is the engine RunReport-so-far (nil when no monitor is attached).
	// Typed as any to keep this leaf package free of report imports; the
	// system layer stores a *perfmon.Report.
	Perf any `json:"perf_report,omitempty"`
}

// SetDeep installs the driver-side deep-snapshot builder. Must be set before
// the first ServeDeep call that finds a pending request.
func (p *Publisher) SetDeep(fn func(cycle uint64) *DeepSnapshot) { p.deepFn = fn }

// ServeDeep fulfils a pending deep-snapshot request, if any. Driver-side,
// called every observed cycle; with no request pending it costs one atomic
// load and nothing else. Safe on nil.
func (p *Publisher) ServeDeep(cycle uint64) {
	if p == nil || p.deepReq.Load() == 0 {
		return
	}
	p.deepReq.Store(0)
	if p.deepFn == nil {
		return
	}
	d := p.deepFn(cycle)
	select {
	case p.deepCh <- d:
	default:
	}
}

// RequestDeep asks the driver for a deep snapshot and waits up to timeout
// for fulfilment. HTTP-goroutine side. Returns nil if the simulation is not
// currently stepping (between runs or finished).
func (p *Publisher) RequestDeep(timeout time.Duration) *DeepSnapshot {
	p.deepMu.Lock()
	defer p.deepMu.Unlock()
	// Drain a stale fulfilment from a timed-out predecessor.
	select {
	case <-p.deepCh:
	default:
	}
	p.deepReq.Store(1)
	select {
	case d := <-p.deepCh:
		return d
	case <-time.After(timeout):
		p.deepReq.Store(0)
		return nil
	}
}
