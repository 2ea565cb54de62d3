package system

import (
	"fmt"
	"time"

	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/obs/perfmon"
	"scorpio/internal/obs/telemetry"
	"scorpio/internal/sim"
	"scorpio/internal/stats"
)

// Series indices into telemetrySeries, the one schema the observers of a
// machine publish: the live exporter publishes the whole table and the CSV
// sampler a projection of it (metricsSeries).
const (
	tsInjected = iota
	tsEjected
	tsFlitsRouted
	tsBypasses
	tsAllocStalls
	tsNotifWindows
	tsParks
	tsWakes
	tsActivations
	tsStepsExecuted
	tsFastForwardCycles
	tsBufferedFlits
	tsOutstanding
	tsActiveUnits
	tsWheelPending
	tsLatP50
	tsLatP99
	numTelemetrySeries
)

// telemetrySeries is the series table shared by every machine; index i
// describes row[i] of one cumulative reading. Every counter series holds its
// *cumulative* value — OpenMetrics counters must be monotonic, and rates
// fall out of consecutive SSE ticks on the client side.
var telemetrySeries = []telemetry.Series{
	tsInjected:          {Name: "injected", Kind: telemetry.Counter, Help: "Packets injected into the network (requests + responses)."},
	tsEjected:           {Name: "ejected", Kind: telemetry.Counter, Help: "Packets delivered to their destination agents."},
	tsFlitsRouted:       {Name: "flits_routed", Kind: telemetry.Counter, Help: "Flits traversing router crossbars."},
	tsBypasses:          {Name: "bypasses", Kind: telemetry.Counter, Help: "Single-cycle router bypasses taken."},
	tsAllocStalls:       {Name: "alloc_stalls", Kind: telemetry.Counter, Help: "Switch-allocation stalls (flit lost arbitration or lacked credits)."},
	tsNotifWindows:      {Name: "notif_windows", Kind: telemetry.Counter, Help: "Notification-network windows delivered (SCORPIO only)."},
	tsParks:             {Name: "parks", Kind: telemetry.Counter, Help: "Scheduling units demoted off the every-cycle schedule."},
	tsWakes:             {Name: "wakes", Kind: telemetry.Counter, Help: "Successful parked-unit wake requests (all edges)."},
	tsActivations:       {Name: "activations", Kind: telemetry.Counter, Help: "Parked units returned to the schedule."},
	tsStepsExecuted:     {Name: "steps_executed", Kind: telemetry.Counter, Help: "Kernel cycles actually stepped (fast-forwarded cycles are skipped)."},
	tsFastForwardCycles: {Name: "fast_forward_cycles", Kind: telemetry.Counter, Help: "Cycles skipped over fully-quiescent spans (0 while an observer is attached)."},
	tsBufferedFlits:     {Name: "buffered_flits", Kind: telemetry.Gauge, Help: "Flits currently buffered in router VCs."},
	tsOutstanding:       {Name: "outstanding", Kind: telemetry.Gauge, Help: "Outstanding L2 misses across all cores."},
	tsActiveUnits:       {Name: "active_units", Kind: telemetry.Gauge, Help: "Scheduling units on the every-cycle schedule."},
	tsWheelPending:      {Name: "wheel_pending", Kind: telemetry.Gauge, Help: "Filed timing-wheel wake entries."},
	tsLatP50:            {Name: "lat_p50", Kind: telemetry.Gauge, Help: "p50 L2 service latency in cycles over the run so far."},
	tsLatP99:            {Name: "lat_p99", Kind: telemetry.Gauge, Help: "p99 L2 service latency in cycles over the run so far."},
}

// metricsSeries projects the series table onto the CSV sampler's columns:
// a counter column reports the delta since the previous sample (a rate), a
// gauge column the value as read. The last four columns come from the
// kernel's activity engine (see internal/obs/perfmon); fast-forward never
// fires under the sampler (an observer disables it), so its counters live in
// the RunReport only.
var metricsSeries = []int{
	tsInjected, tsEjected, tsBufferedFlits,
	tsFlitsRouted, tsBypasses, tsAllocStalls,
	tsNotifWindows, tsOutstanding,
	tsActiveUnits, tsParks, tsWakes, tsWheelPending,
}

// metricsColumns names the sampler's columns, in metricsSeries order.
var metricsColumns = func() []string {
	cols := make([]string, len(metricsSeries))
	for j, i := range metricsSeries {
		cols[j] = telemetrySeries[i].Name
	}
	return cols
}()

// reading is one machine-wide read of the network counters and occupancy
// gauges a probe reports.
type reading struct {
	injected, ejected     uint64
	net                   noc.RouterStats // flits routed, bypasses, alloc stalls
	notifWindows          uint64          // SCORPIO only
	buffered, outstanding int             // router-buffered flits, outstanding misses
}

// probe is what the observers read from one machine. Every method runs
// driver-side, between cycles.
type probe interface {
	// read adds the machine's cumulative counters and current gauges to c.
	read(c *reading)
	// inflight reports whether undelivered packets exist anywhere (router
	// buffers or endpoint queues).
	inflight() bool
	// snapshot renders the full network state at a cycle.
	snapshot(now uint64) string
}

// outstanding sums the outstanding misses of a machine's L2s.
func outstanding[L interface{ Outstanding() int }](l2s []L) int {
	n := 0
	for _, l2 := range l2s {
		n += l2.Outstanding()
	}
	return n
}

// endpoint is a directory NIC or a baseline endpoint: the per-node queue an
// unordered-mesh machine's probe reads besides the mesh itself.
type endpoint interface {
	HasPendingWork() bool
	OrderingSnapshot() string
}

// meshInflight reports whether flits are buffered in the mesh or packets
// wait in any endpoint.
func meshInflight[E endpoint](mesh *noc.Mesh, eps []E) bool {
	if mesh.BufferedFlits() > 0 {
		return true
	}
	for _, ep := range eps {
		if ep.HasPendingWork() {
			return true
		}
	}
	return false
}

// meshSnapshot renders the mesh state plus every endpoint that still holds
// packets.
func meshSnapshot[E endpoint](mesh *noc.Mesh, eps []E, now uint64) string {
	s := mesh.Snapshot(now)
	for _, ep := range eps {
		if ep.HasPendingWork() {
			s += ep.OrderingSnapshot() + "\n"
		}
	}
	return s
}

// fill writes one cumulative reading of the series table into row from the
// machine's probe and the kernel's activity engine. The latency gauges are
// left to the live exporter, the only reader that pays for them.
func fill(row []float64, k *sim.Kernel, p probe) {
	var c reading
	p.read(&c)
	act := k.ActivityCounters()
	activeUnits, _ := k.ActiveUnits()
	row[tsInjected] = float64(c.injected)
	row[tsEjected] = float64(c.ejected)
	row[tsFlitsRouted] = float64(c.net.FlitsRouted)
	row[tsBypasses] = float64(c.net.Bypasses)
	row[tsAllocStalls] = float64(c.net.AllocStalls)
	row[tsNotifWindows] = float64(c.notifWindows)
	row[tsParks] = float64(act.Parks)
	row[tsWakes] = float64(act.TotalWakes())
	row[tsActivations] = float64(act.Activations)
	row[tsStepsExecuted] = float64(act.StepsExecuted)
	row[tsFastForwardCycles] = float64(act.FastForwardCycles)
	row[tsBufferedFlits] = float64(c.buffered)
	row[tsOutstanding] = float64(c.outstanding)
	row[tsActiveUnits] = float64(activeUnits)
	row[tsWheelPending] = float64(act.WheelPending)
}

// heat returns each router's utilization — crossbar traversals per cycle —
// over the last span cycles, written into util (allocated when nil). since
// holds the traversal counts the span starts from and is advanced to the
// current counts; nil measures from cycle 0.
func heat(mesh *noc.Mesh, util []float64, since []uint64, span uint64) []float64 {
	if util == nil {
		util = make([]float64, mesh.Config().Nodes())
	}
	for node := range util {
		f := mesh.Router(node).Stats.FlitsRouted
		var base uint64
		if since != nil {
			base, since[node] = since[node], f
		}
		util[node] = float64(f-base) / float64(span)
	}
	return util
}

// latency returns a live p50/p99 service-latency reader over the machine's
// injectors, read at call time (SCORPIO attaches them after its bundle is
// built). The merge histogram is allocated on the first read and reused, so
// sampling stays allocation-free after the first tick.
func (m *machine) latency() func() (p50, p99 float64) {
	var scratch *stats.Histogram
	return func() (float64, float64) {
		if len(m.Injectors) == 0 || m.Injectors[0].ServiceHist == nil {
			return 0, 0
		}
		if scratch == nil {
			h := m.Injectors[0].ServiceHist
			scratch = stats.NewHistogram(h.BucketWidth, len(h.Buckets))
		}
		scratch.Reset()
		for _, in := range m.Injectors {
			scratch.Merge(in.ServiceHist)
		}
		return float64(scratch.Percentile(50)), float64(scratch.Percentile(99))
	}
}

// Observability bundles one run's enabled observability features: the
// lifecycle tracer (threaded through routers, NICs, notification network and
// coherence controllers), the periodic metrics sampler, the forward-progress
// watchdog, the online ordering/coherence auditor and the per-transaction
// latency attributor. A nil *Observability means everything is off.
type Observability struct {
	Tracer   *obs.Tracer
	Metrics  *obs.Metrics
	Watchdog *obs.Watchdog
	Auditor  *audit.Auditor
	Attrib   *obs.Attribution
	// Perf is the engine self-observability monitor attached to the kernel;
	// PerfReport is its drained RunReport, filled in when the run finishes.
	Perf       *perfmon.Mon
	PerfReport *perfmon.Report
	// Telemetry is the live HTTP exporter, already listening; the facade
	// closes it when the run's results have been collected.
	Telemetry *telemetry.Server

	// mesh is the machine's main network, the one the heat grids cover.
	mesh         *noc.Mesh
	configDigest string
	// perfWanted records whether the caller asked for a RunReport. Telemetry
	// attaches a perf monitor on its own (for /metrics worker counters), but
	// only an explicit Perf option should make Result.Obs.PerfReport non-nil.
	perfWanted bool
}

// Stalled reports whether the watchdog detected a stall. Safe on nil.
func (o *Observability) Stalled() bool { return o != nil && o.Watchdog.Stalled() }

// StallReport returns the watchdog's diagnosis ("" when healthy).
func (o *Observability) StallReport() string {
	if o == nil {
		return ""
	}
	return o.Watchdog.Report()
}

// Violated reports whether the auditor latched a violation. Safe on nil.
func (o *Observability) Violated() bool { return o != nil && o.Auditor.Violated() }

// AuditReport returns the auditor's violation report ("" when clean).
func (o *Observability) AuditReport() string {
	if o == nil {
		return ""
	}
	return o.Auditor.Report()
}

// failure reports a latched audit violation or watchdog stall as the run's
// error, nil while healthy. Safe on nil.
func (o *Observability) failure(label string) error {
	switch {
	case o.Violated():
		return fmt.Errorf("system: %s audit violation\n%s", label, o.AuditReport())
	case o.Stalled():
		return fmt.Errorf("system: %s stalled\n%s", label, o.StallReport())
	}
	return nil
}

// CloseTelemetry shuts down the telemetry HTTP server (disconnecting any
// /stream clients) and releases its port. Safe on nil and when telemetry was
// never enabled; safe to call more than once.
func (o *Observability) CloseTelemetry() {
	if o != nil {
		_ = o.Telemetry.Close()
	}
}

// buildObs assembles the bundle for machine m, whose main network is mesh
// and whose counters, gauges and state p reads, and installs it as the
// kernel's post-commit observer. Returns nil (and installs nothing) when opt
// enables no feature, keeping the disabled per-step cost at the kernel's
// single observer nil-check. The only error source is the telemetry exporter
// failing to bind its listen address.
func buildObs(opt *obs.Options, m *machine, mesh *noc.Mesh, p probe) (*Observability, error) {
	if opt == nil || !opt.Enabled() {
		return nil, nil
	}
	k := m.Kernel
	cfg := mesh.Config()
	o := &Observability{mesh: mesh, configDigest: opt.ConfigDigest, perfWanted: opt.Perf}
	if opt.Perf || opt.TelemetryAddr != "" {
		// Telemetry wants the per-worker counters on /metrics even when no
		// RunReport was asked for; perfWanted keeps the report gated.
		o.Perf = perfmon.New()
		k.SetPerfMon(o.Perf)
	}
	if opt.Trace {
		o.Tracer = obs.NewTracer(opt.TraceCapacity)
	}
	if opt.MetricsInterval > 0 {
		o.Metrics = obs.NewMetrics(opt.MetricsInterval, metricsColumns)
	}
	// Hang reports carry the activity engine's census alongside the network
	// snapshot, so a wedged-while-parked unit names its missing wake edge.
	snap := func() string { return p.snapshot(k.Cycle()) + k.ActivityReport() }
	if opt.Audit {
		o.Auditor = audit.New(cfg.Nodes(), audit.Options{SweepEvery: opt.AuditEvery}, snap)
		o.Attrib = obs.NewAttribution()
	}
	if opt.Watchdog > 0 {
		progress := func() (uint64, bool) {
			var c reading
			p.read(&c)
			return c.ejected, p.inflight()
		}
		o.Watchdog = obs.NewWatchdog(opt.Watchdog, progress, snap)
	}
	// The telemetry exporter: a lock-free published page the observer fills
	// at its own interval, plus the HTTP server reading it. Built before the
	// observer closure so the closure can capture the publisher.
	var pub *telemetry.Publisher
	var live func(row []float64)
	if opt.TelemetryAddr != "" {
		pub = telemetry.NewPublisher(telemetrySeries, opt.TelemetryInterval,
			cfg.Width, cfg.Height, opt.TelemetrySSEQueue)
		latency := m.latency()
		live = func(row []float64) {
			fill(row, k, p)
			row[tsLatP50], row[tsLatP99] = latency()
		}
		pub.SetDeep(func(cycle uint64) *telemetry.DeepSnapshot {
			row := make([]float64, numTelemetrySeries)
			live(row)
			d := &telemetry.DeepSnapshot{
				Cycle:    cycle,
				WallNs:   time.Now().UnixNano(),
				Label:    m.label,
				Vals:     make(map[string]float64, numTelemetrySeries),
				Network:  p.snapshot(cycle),
				Activity: k.ActivityReport(),
			}
			for i, s := range telemetrySeries {
				d.Vals[s.Name] = row[i]
			}
			if cycle > 0 {
				d.Heat = &telemetry.HeatGrid{Width: cfg.Width, Height: cfg.Height, Util: heat(mesh, nil, nil, cycle)}
			}
			if o.Perf != nil {
				d.Perf = k.PerfReport(m.label, o.configDigest, 0)
			}
			return d
		})
		srv := telemetry.NewServer(pub, telemetry.Options{
			Label:     m.label,
			Mon:       o.Perf,
			WakeEdges: k.WakeEdges,
			Balance:   k.BalanceStats,
			Workers:   k.Workers,
		})
		if err := srv.Serve(opt.TelemetryAddr); err != nil {
			return nil, err
		}
		o.Telemetry = srv
	}

	if o.Metrics == nil && o.Watchdog == nil && o.Auditor == nil && pub == nil {
		// Trace-only and perf-only runs need no per-cycle observer — the
		// tracer's hooks live in the components and perfmon's in the kernel —
		// so fast-forward over quiescent spans stays available to them.
		return o, nil
	}
	cur := make([]float64, numTelemetrySeries)
	prev := make([]float64, numTelemetrySeries)
	sample := make([]float64, len(metricsSeries))
	telRow := make([]float64, numTelemetrySeries)
	var heatBuf []float64
	var heatFlits []uint64
	var heatCycle uint64
	if pub != nil {
		heatBuf = make([]float64, cfg.Nodes())
		heatFlits = make([]uint64, cfg.Nodes())
	}
	k.SetObserver(func(cycle uint64) {
		o.Watchdog.Observe(cycle)
		o.Auditor.Observe(cycle)
		pub.ServeDeep(cycle)
		if o.Metrics.Due(cycle) {
			fill(cur, k, p)
			for j, i := range metricsSeries {
				sample[j] = cur[i]
				if telemetrySeries[i].Kind == telemetry.Counter {
					sample[j] -= prev[i]
				}
			}
			o.Metrics.Add(cycle, sample)
			cur, prev = prev, cur
		}
		if pub.Due(cycle) {
			live(telRow)
			// Per-router utilization over the last sample window, not the
			// cumulative average — a live dashboard wants to see hotspots
			// move. The first tick at cycle 0 has no window yet.
			var util []float64
			if cycle > heatCycle {
				util = heat(mesh, heatBuf, heatFlits, cycle-heatCycle)
				heatCycle = cycle
			}
			pub.Publish(cycle, telRow, util)
		}
	})
	return o, nil
}
