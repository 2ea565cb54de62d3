package system

import (
	"fmt"
	"time"

	"scorpio/internal/coherence"
	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/sim"
	"scorpio/internal/stats"
	"scorpio/internal/trace"
)

// Workload is what a machine runs and how the run is watched. Options,
// DirectoryOptions and BaselineOptions embed it, so all five protocols run
// the same workload from the same fields.
type Workload struct {
	// Profile selects the benchmark workload.
	Profile trace.Profile
	// WorkPerCore is the number of measured L2 accesses each core completes.
	WorkPerCore uint64
	// WarmupPerCore is the number of cache-warming accesses completed before
	// statistics engage (the paper's RTL runs discard a 20K-cycle warmup).
	WarmupPerCore uint64
	// MaxOutstanding bounds in-flight accesses per core (2 on the chip; 0
	// selects 2). The builders raise each L2's MSHRs and core queue, and
	// SCORPIO's pending notifications, to hold it.
	MaxOutstanding int
	// Seed drives all stochastic workload decisions.
	Seed uint64
	// Workers sets the kernel's parallel worker count; 0 or 1 runs the
	// classic serial tick loop. Results are identical either way. TokenB
	// and INSO reject more than one.
	Workers int
	// Obs selects observability features (tracing, metrics, watchdog,
	// auditor); nil disables everything at zero per-step cost.
	Obs *obs.Options
}

// DefaultWorkload returns the chip's workload for a benchmark: 400 measured
// and 300 warm-up accesses per core, two outstanding, seed 1.
func DefaultWorkload(prof trace.Profile) Workload {
	return Workload{Profile: prof, WorkPerCore: 400, WarmupPerCore: 300, MaxOutstanding: 2, Seed: 1}
}

// fill selects the default outstanding-miss limit.
func (w *Workload) fill() {
	if w.MaxOutstanding <= 0 {
		w.MaxOutstanding = 2
	}
}

// holdMisses raises an L2's MSHRs and core-queue depth to hold the
// workload's outstanding misses (Figure 8d's aggressive cores).
func (w *Workload) holdMisses(mshrs, queue *int) {
	if w.MaxOutstanding > *mshrs {
		*mshrs, *queue = w.MaxOutstanding, 2*w.MaxOutstanding
	}
}

// machine is the run core Scorpio, Directory and Baseline embed, so all five
// protocols are run, checked and reported by the same code: it owns
// completion, the end-of-run sequence and the injector half of Results.
// label names the run ("SCORPIO/fft", "LPD-D/lu", "INSO/barnes"); order is
// the global-order check of an ordered machine (nil for the directories).
type machine struct {
	Kernel    *sim.Kernel
	Injectors []*trace.Injector
	Obs       *Observability // nil unless the options enabled something

	label string
	order *audit.OrderCheck
}

// Done reports whether every core finished its work quota.
func (m *machine) Done() bool {
	for _, in := range m.Injectors {
		if !in.Done() {
			return false
		}
	}
	return true
}

// run executes until every core finishes or the cycle limit is reached and
// drains the perf monitor into the RunReport (only when one was asked for:
// a telemetry-only monitor stays off the Result). An audit violation, a
// watchdog stall (with the full network snapshot), an unfinished run or a
// failed global-order check is an error; then the auditor's end-of-run
// sweep runs. A successful run attaches the whole-run router-utilization
// heat map to the metrics store and returns the injector half of the
// results.
func (m *machine) run(limit uint64) (Results, error) {
	o := m.Obs
	done := m.Done
	if o != nil && (o.Watchdog != nil || o.Auditor != nil) {
		done = func() bool { return o.Stalled() || o.Violated() || m.Done() }
	}
	wall0 := time.Now()
	finished := m.Kernel.RunUntil(done, limit)
	if o != nil && o.Perf != nil && o.perfWanted {
		o.PerfReport = m.Kernel.PerfReport(m.label, o.configDigest, int64(time.Since(wall0)))
	}
	if err := o.failure(m.label); err != nil {
		return Results{}, err
	}
	if !finished {
		var completed uint64
		for _, in := range m.Injectors {
			completed += in.Completed
		}
		return Results{}, fmt.Errorf("system: %s did not finish within %d cycles (completed %d)",
			m.label, limit, completed)
	}
	if err := m.order.Err(); err != nil {
		return Results{}, fmt.Errorf("system: %s %w", m.label, err)
	}
	if o != nil {
		o.Auditor.Finish(m.Kernel.Cycle())
		if err := o.failure(m.label); err != nil {
			return Results{}, err
		}
		if o.Metrics != nil && m.Kernel.Cycle() > 0 {
			cfg := o.mesh.Config()
			o.Metrics.SetHeatmap(cfg.Width, cfg.Height, heat(o.mesh, nil, nil, m.Kernel.Cycle()))
		}
	}
	return m.results(), nil
}

// results aggregates the per-core statistics into Results.
func (m *machine) results() Results {
	r := Results{Cycles: m.Kernel.Cycle(), Obs: m.Obs}
	if len(m.Injectors) > 0 {
		r.ServiceHist = stats.NewHistogram(4, 512)
	}
	for _, in := range m.Injectors {
		r.Completed += in.Completed
		r.Service.Merge(in.ServiceLatency)
		r.ServiceHist.Merge(in.ServiceHist)
		r.HitLat.Merge(in.HitLatency)
		r.MissLat.Merge(in.MissLatency)
		r.CacheServed.Merge(in.CacheServed)
		r.MemServed.Merge(in.MemServed)
		if in.DoneCycle > r.LastDone {
			r.LastDone = in.DoneCycle
		}
	}
	return r
}

// addSnoopyL2s adds the counters of the snoopy MOSI L2s that SCORPIO,
// TokenB and INSO share.
func (r *Results) addSnoopyL2s(l2s []*coherence.L2Controller) {
	for _, l2 := range l2s {
		r.L2Hits += l2.Stats.Hits
		r.L2Misses += l2.Stats.Misses
		r.SnoopsFiltered += l2.Stats.SnoopsFiltered
		r.SnoopsSeen += l2.Stats.SnoopsSeen
		r.Writebacks += l2.Stats.Writebacks
		r.FIDDeferrals += l2.Stats.FIDDeferrals
	}
}

// inject builds the trace injectors of nodes 0..len(ports)-1, node i's
// driving ports[i], as one slice. The builder registers each in its node's
// scheduling unit.
func (m *machine) inject(w *Workload, ports []trace.RequestPort) {
	injs := trace.NewInjectors(w.Profile, w.Seed, ports, w.MaxOutstanding, w.WarmupPerCore, w.WorkPerCore)
	m.Injectors = make([]*trace.Injector, len(injs))
	for i := range injs {
		m.Injectors[i] = &injs[i]
	}
}

// completer returns the L2 completion hook every L2 shares: it reports each
// completion to the injector of the completing node.
func (m *machine) completer() func(coherence.Completion) {
	return func(c coherence.Completion) {
		m.Injectors[c.Node].OnComplete(c.Addr, c.Write, c.Issue, c.Done, c.Hit, c.ServedByCache, &c.Breakdown)
	}
}

// attribute hands the run's latency attributor to every injector.
func (m *machine) attribute() {
	if m.Obs != nil {
		for _, in := range m.Injectors {
			in.Attr = m.Obs.Attrib
		}
	}
}

// hooked is a component the run's tracer and auditor thread through.
type hooked interface {
	SetTracer(*obs.Tracer)
	SetAuditor(*audit.Auditor)
}

// hook threads the bundle's tracer and auditor (each nil when not enabled)
// into parts; a nil bundle leaves them detached.
func hook[T hooked](o *Observability, parts ...T) {
	if o == nil {
		return
	}
	for _, p := range parts {
		p.SetTracer(o.Tracer)
		p.SetAuditor(o.Auditor)
	}
}
