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

// machine is the run core Scorpio, Directory and Baseline embed, so all five
// protocols are run, checked and reported by the same code: it owns
// completion, the end-of-run sequence and the injector half of Results.
// label names the run ("SCORPIO/fft", "LPD-D/lu", "INSO/barnes").
type machine struct {
	Kernel    *sim.Kernel
	Injectors []*trace.Injector
	Obs       *Observability // nil unless the options enabled something

	label string
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
// watchdog stall (with the full network snapshot) or an unfinished run is an
// error; then verify (the machine's own final check, nil for none) and the
// auditor's end-of-run sweep run. A successful run attaches the whole-run
// router-utilization heat map to the metrics store and returns the injector
// half of the results.
func (m *machine) run(limit uint64, verify func() error) (Results, error) {
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
	if verify != nil {
		if err := verify(); err != nil {
			return Results{}, err
		}
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
