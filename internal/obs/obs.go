// Package obs is the simulator's observability layer: a ring-buffered,
// allocation-free lifecycle event tracer, a periodic live-metrics sampler,
// and a forward-progress watchdog that turns silent network hangs into
// diagnosable failures.
//
// The package is a leaf: it depends only on the standard library and
// internal/stats, so every simulation layer (noc, nic, notif, coherence,
// baseline) can hold an optional *Tracer without import cycles. The
// discipline throughout is zero-cost-when-off: components keep a nil tracer
// pointer by default and guard every hook with a nil check, so a disabled
// build path costs one predictable branch and allocates nothing — the
// steady-state allocation tests (TestMeshSteadyStateAllocs and the
// system-level bounds) hold with the hooks compiled in. When tracing is on,
// events are fixed-size structs written into a preallocated ring under a
// mutex (the parallel kernel's workers may record concurrently), so the
// enabled path does not allocate either; a full ring overwrites the oldest
// events and counts the loss instead of growing.
package obs

// Options selects which observability features a run enables. The zero
// value disables everything.
type Options struct {
	// Trace enables lifecycle event tracing into a ring of TraceCapacity
	// events (DefaultTraceCapacity when zero).
	Trace bool
	// TraceCapacity overrides the event ring size.
	TraceCapacity int
	// MetricsInterval samples live metrics every N cycles; 0 disables the
	// sampler.
	MetricsInterval uint64
	// Watchdog fails the run after N cycles without forward progress while
	// packets are in flight; 0 disables the monitor.
	Watchdog uint64
	// Audit enables the online ordering/coherence auditor and the
	// per-transaction latency attributor.
	Audit bool
	// Perf attaches the engine self-observability monitor (internal/obs/
	// perfmon): sampled per-worker phase timing plus the activity-engine
	// event census, drained into a RunReport at the end of the run.
	Perf bool
	// ConfigDigest fingerprints the simulation-relevant configuration; it is
	// stamped into the RunReport so benchdiff never silently compares
	// different workloads.
	ConfigDigest string
	// TelemetryAddr, when non-empty, starts the embeddable live HTTP exporter
	// (internal/obs/telemetry) on this listen address (":0" picks an
	// ephemeral port, printed to stderr): /metrics OpenMetrics exposition,
	// /snapshot deep state, /healthz, and the pprof mux.
	TelemetryAddr string
	// TelemetryInterval is the exporter's sample period in cycles
	// (telemetry.DefaultInterval when zero).
	TelemetryInterval uint64
}

// Enabled reports whether any feature is on.
func (o Options) Enabled() bool {
	return o.Trace || o.MetricsInterval > 0 || o.Watchdog > 0 || o.Audit || o.Perf ||
		o.TelemetryAddr != ""
}

// DefaultTraceCapacity is the event ring size when Options.TraceCapacity is
// zero: large enough to hold the full lifecycle of tens of thousands of
// flit-hops (a few hundred simulated microseconds on a 36-core mesh) at
// ~64 bytes per event.
const DefaultTraceCapacity = 1 << 20
