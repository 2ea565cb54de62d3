// Package scorpio is a from-scratch Go reproduction of the SCORPIO 36-core
// research chip (Daya et al., ISCA 2014): snoopy coherence on a scalable
// mesh network-on-chip with in-network global ordering.
//
// The package exposes a small facade over the full simulator:
//
//   - Run executes one benchmark on one protocol configuration and returns
//     aggregate results (runtime, L2 service latency, latency breakdowns).
//   - The Figure*/Table* functions in experiments.go regenerate every table
//     and figure of the paper's evaluation (Section 5).
//   - The underlying building blocks (ordered network, snoopy protocol,
//     directory baselines, workload profiles) live in internal/ packages;
//     Run maps a Config onto the machine builders of internal/system.
package scorpio

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strings"

	"scorpio/internal/directory"
	"scorpio/internal/noc"
	"scorpio/internal/obs"
	"scorpio/internal/system"
	"scorpio/internal/trace"
)

// Protocol selects a coherence/ordering scheme.
type Protocol string

// Supported protocols.
const (
	// SCORPIO is the paper's contribution: snoopy MOSI on the globally
	// ordered mesh.
	SCORPIO Protocol = "SCORPIO"
	// LPDD is the distributed limited-pointer directory baseline.
	LPDD Protocol = "LPD-D"
	// HTD is the distributed HyperTransport-style directory baseline.
	HTD Protocol = "HT-D"
	// TokenB is the token-coherence baseline (no data races modelled,
	// matching the paper).
	TokenB Protocol = "TokenB"
	// INSO is In-Network Snoop Ordering; Config.ExpiryWindow selects the
	// expiration window.
	INSO Protocol = "INSO"
)

// Result aliases the shared per-run results type.
type Result = system.Results

// Profile aliases a benchmark workload profile.
type Profile = trace.Profile

// Config describes one simulation run.
type Config struct {
	// Protocol selects the machine; default SCORPIO.
	Protocol Protocol
	// Benchmark names a SPLASH-2/PARSEC profile (see Benchmarks()).
	Benchmark string
	// Width and Height set the mesh (default 6×6 = the chip).
	Width, Height int
	// WorkPerCore and WarmupPerCore set the measured and cache-warming
	// access counts per core (defaults 400/300).
	WorkPerCore, WarmupPerCore uint64
	// MaxOutstanding bounds in-flight misses per core (default 2, the chip's
	// AHB limit; the paper's GEMS runs use 16).
	MaxOutstanding int
	// Seed drives the workload; equal seeds give identical streams across
	// protocols.
	Seed uint64
	// ExpiryWindow is INSO's expiration window in cycles (default 20); INSO
	// only.
	ExpiryWindow int
	// IntensityScale multiplies the benchmark's issue intensity (1.0 when
	// zero). The aggressive-core study (Figure 8d) runs at 0.5 so that
	// six-outstanding cores stay below the ordered-delivery saturation
	// point, matching the paper's lower per-instruction miss rates.
	IntensityScale float64
	// DirCacheBytes is the machine-wide directory-cache budget shared by
	// every protocol (the paper equalises 256KB). The default is 8KB: the
	// paper's budget scaled to this repo's synthetic-trace footprints so the
	// capacity regime (working set between LPD's and HT's entry counts)
	// matches the paper's — see EXPERIMENTS.md.
	DirCacheBytes int

	// Design-exploration knobs (Section 5.2); zero values keep the chip's.
	// All five machines route on the same router, so the channel width,
	// both VC counts and bypassing apply to every protocol.
	ChannelBytes int
	GOReqVCs     int
	UORespVCs    int
	Bypass       *bool // nil = chip default (enabled)
	// NotifBits widens the notification network (Figure 8d); SCORPIO only.
	NotifBits int
	// PipelinedL2 selects Figure 10's PL (nil = pipelined) or Non-PL
	// uncore; SCORPIO only.
	PipelinedL2 *bool
	// MainNetworks replicates the main mesh (Section 5.3's throughput
	// extension); 0 or 1 is the chip's single network, and more is
	// SCORPIO only.
	MainNetworks int
	// CycleLimit aborts runaway runs (default 50M cycles).
	CycleLimit uint64
	// Workers sets the simulation kernel's worker count. 0 or 1 keeps the
	// classic serial tick loop; N > 1 shards the components over N
	// goroutines with identical results. TokenB and INSO reject N > 1:
	// their orderers are shared state.
	Workers int

	// Observability (PR 3). All default to off; when off the hooks compile
	// to a nil-check and the hot path stays allocation-free.

	// TracePath, when non-empty, records every flit/transaction lifecycle
	// event and writes a Chrome trace-event JSON file (load in Perfetto or
	// chrome://tracing) at that path after the run.
	TracePath string
	// MetricsInterval samples live metrics (injection/ejection rates, VC
	// occupancy, notification activity, outstanding misses) every N cycles.
	MetricsInterval uint64
	// MetricsPath receives the sampled time series; ".json" suffix selects
	// JSON, anything else CSV. Empty with MetricsInterval set keeps the
	// series in Result.Obs without writing a file.
	MetricsPath string
	// WatchdogCycles aborts the run with a full network-state snapshot when
	// no packet is delivered for this many cycles while traffic is in
	// flight (0 = disabled).
	WatchdogCycles uint64
	// Audit attaches the online ordering/coherence auditor: MOSI line
	// states are checked against a shadow directory and flit delivery
	// against duplicate/drop invariants, and the run stops at the commit
	// that breaks the global order (which every ordered machine checks at
	// the end of every run anyway). The first violation aborts the run
	// with a diagnosis naming the culprit NICs/line. Also enables the
	// per-miss latency attributor (Result.Obs.Attrib).
	Audit bool
	// PerfReportPath attaches the engine self-observability monitor
	// (internal/obs/perfmon) and writes its RunReport JSON — per-worker
	// phase-time decomposition, barrier spin/park split, activity-engine
	// census, rebalance log, host metadata — to this path after the run.
	// The report also stays readable in Result.Obs.PerfReport. "-" attaches
	// the monitor without writing a file.
	PerfReportPath string
	// TelemetryAddr starts the live HTTP exporter on this listen address for
	// the duration of the run (":8090", or ":0" for an ephemeral port printed
	// to stderr): /metrics OpenMetrics text, /snapshot deep state, /healthz,
	// /debug/pprof. Attach cmd/scorpiotop to watch the run live. The server
	// shuts down when the run returns.
	TelemetryAddr string
	// TelemetryInterval is the exporter's sample period in cycles (default
	// 1024). Requires TelemetryAddr.
	TelemetryInterval uint64
}

// configDigest fingerprints the simulation-relevant configuration (protocol,
// workload, topology, knobs — not observability or worker settings, which
// never change results) so benchdiff can refuse to compare unlike runs.
func (c *Config) configDigest() string {
	tri := func(p *bool) string {
		if p == nil {
			return "default"
		}
		return fmt.Sprint(*p)
	}
	canon := fmt.Sprintf("proto=%s bench=%s mesh=%dx%d work=%d warmup=%d out=%d seed=%d expiry=%d scale=%g dir=%d ch=%d goreq=%d uoresp=%d notif=%d bypass=%s pl2=%s nets=%d",
		c.Protocol, c.Benchmark, c.Width, c.Height, c.WorkPerCore, c.WarmupPerCore,
		c.MaxOutstanding, c.Seed, c.ExpiryWindow, c.IntensityScale, c.DirCacheBytes,
		c.ChannelBytes, c.GOReqVCs, c.UORespVCs, c.NotifBits, tri(c.Bypass), tri(c.PipelinedL2),
		c.MainNetworks)
	h := fnv.New64a()
	h.Write([]byte(canon))
	return fmt.Sprintf("%016x", h.Sum64())
}

// obsOptions assembles the observability options (nil when everything is
// off).
func (c *Config) obsOptions() *obs.Options {
	o := obs.Options{
		Trace:             c.TracePath != "",
		MetricsInterval:   c.MetricsInterval,
		Watchdog:          c.WatchdogCycles,
		Audit:             c.Audit,
		Perf:              c.PerfReportPath != "",
		TelemetryAddr:     c.TelemetryAddr,
		TelemetryInterval: c.TelemetryInterval,
	}
	if !o.Enabled() {
		return nil
	}
	if o.Perf || o.TelemetryAddr != "" {
		o.ConfigDigest = c.configDigest()
	}
	return &o
}

// writeObsArtifacts flushes the trace and metrics files configured in cfg.
// Run errors take precedence; artifact-write errors surface only on
// otherwise-successful runs.
func writeObsArtifacts(cfg Config, r Result) error {
	if r.Obs == nil {
		return nil
	}
	if cfg.TracePath != "" && r.Obs.Tracer != nil {
		if err := writeFile(cfg.TracePath, r.Obs.Tracer.WriteChromeTrace); err != nil {
			return err
		}
	}
	if cfg.PerfReportPath != "" && cfg.PerfReportPath != "-" && r.Obs.PerfReport != nil {
		if err := writeFile(cfg.PerfReportPath, r.Obs.PerfReport.WriteJSON); err != nil {
			return err
		}
	}
	if cfg.MetricsPath != "" && r.Obs.Metrics != nil {
		write := r.Obs.Metrics.WriteCSV
		if strings.HasSuffix(cfg.MetricsPath, ".json") {
			write = r.Obs.Metrics.WriteJSON
		}
		return writeFile(cfg.MetricsPath, write)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Benchmarks returns every available benchmark name.
func Benchmarks() []string {
	var names []string
	for _, p := range trace.All() {
		names = append(names, p.Name)
	}
	return names
}

// BenchmarksOf returns the benchmarks of one suite ("splash2" or "parsec").
func BenchmarksOf(suite string) []string {
	var names []string
	for _, p := range trace.Suite(suite) {
		names = append(names, p.Name)
	}
	return names
}

// fill checks the Config and applies defaults.
func (c *Config) fill() error {
	if c.Protocol == "" {
		c.Protocol = SCORPIO
	}
	switch c.Protocol {
	case SCORPIO, LPDD, HTD, TokenB, INSO:
	default:
		return fmt.Errorf("scorpio: unknown protocol %q", c.Protocol)
	}
	// The knobs only some machines have, checked as given: a knob set for a
	// protocol that ignores it would run some other machine than the one
	// asked for. Workers > 1 on TokenB or INSO is rejected by their builder.
	for _, k := range []struct {
		name string
		set  bool
		only Protocol
	}{
		{"NotifBits", c.NotifBits != 0, SCORPIO},
		{"MainNetworks", c.MainNetworks > 1, SCORPIO},
		{"PipelinedL2", c.PipelinedL2 != nil, SCORPIO},
		{"ExpiryWindow", c.ExpiryWindow != 0, INSO},
	} {
		if k.set && c.Protocol != k.only {
			return fmt.Errorf("scorpio: Config.%s does not apply to %s", k.name, c.Protocol)
		}
	}
	if c.Benchmark == "" {
		return fmt.Errorf("scorpio: Config.Benchmark is required (one of %v)", Benchmarks())
	}
	if c.Width == 0 {
		c.Width = 6
	}
	if c.Height == 0 {
		c.Height = 6
	}
	if c.WorkPerCore == 0 {
		c.WorkPerCore = 400
	}
	if c.WarmupPerCore == 0 {
		c.WarmupPerCore = 300
	}
	// A negative size or count would otherwise fall through to a default or
	// to the nearest legal value and silently run a different machine.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxOutstanding", c.MaxOutstanding},
		{"DirCacheBytes", c.DirCacheBytes},
		{"MainNetworks", c.MainNetworks},
		{"Workers", c.Workers},
	} {
		if f.v < 0 {
			return fmt.Errorf("scorpio: Config.%s must not be negative, got %d", f.name, f.v)
		}
	}
	if c.IntensityScale < 0 || math.IsNaN(c.IntensityScale) {
		return fmt.Errorf("scorpio: Config.IntensityScale must be a non-negative number, got %g", c.IntensityScale)
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ExpiryWindow == 0 {
		c.ExpiryWindow = 20
	}
	if c.DirCacheBytes == 0 {
		c.DirCacheBytes = 8 * 1024
	}
	if c.CycleLimit == 0 {
		c.CycleLimit = 50_000_000
	}
	// Observability flag combinations that silently do nothing are almost
	// always operator mistakes; reject them before building a machine.
	if c.MetricsPath != "" && c.MetricsInterval == 0 {
		return fmt.Errorf("scorpio: Config.MetricsPath requires Config.MetricsInterval > 0")
	}
	if c.TelemetryInterval != 0 && c.TelemetryAddr == "" {
		return fmt.Errorf("scorpio: Config.TelemetryInterval requires Config.TelemetryAddr")
	}
	return nil
}

// Run executes one configuration to completion: it builds the configured
// machine, runs it to the cycle limit, writes the configured artifacts and
// closes the live exporter.
func Run(cfg Config) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	prof, err := profile(cfg)
	if err != nil {
		return Result{}, err
	}
	var run func(limit uint64) (Result, error)
	var o *system.Observability
	switch cfg.Protocol {
	case SCORPIO:
		s, err := system.NewScorpio(scorpioOptions(cfg, prof))
		if err != nil {
			return Result{}, err
		}
		run, o = s.Run, s.Obs
	case LPDD, HTD:
		d, err := system.NewDirectory(directoryOptions(cfg, prof))
		if err != nil {
			return Result{}, err
		}
		run, o = d.Run, d.Obs
	default:
		b, err := system.NewBaseline(baselineOptions(cfg, prof))
		if err != nil {
			return Result{}, err
		}
		run, o = b.Run, b.Obs
	}
	defer o.CloseTelemetry()
	r, err := run(cfg.CycleLimit)
	if err != nil {
		return r, err
	}
	return r, writeObsArtifacts(cfg, r)
}

// profile returns the benchmark profile a filled Config names, at its issue
// intensity.
func profile(cfg Config) (trace.Profile, error) {
	prof, err := trace.ByName(cfg.Benchmark)
	if err != nil {
		return trace.Profile{}, err
	}
	if cfg.IntensityScale > 0 {
		prof.IssueProb *= cfg.IntensityScale
	}
	return prof, nil
}

// workload maps a filled Config onto the workload every machine runs.
func workload(cfg Config, prof trace.Profile) system.Workload {
	return system.Workload{
		Profile: prof, WorkPerCore: cfg.WorkPerCore, WarmupPerCore: cfg.WarmupPerCore,
		MaxOutstanding: cfg.MaxOutstanding, Seed: cfg.Seed, Workers: cfg.Workers,
		Obs: cfg.obsOptions(),
	}
}

// mesh maps a filled Config's mesh size and router knobs onto net: all five
// machines route on the same router.
func mesh(cfg Config, net noc.Config) noc.Config {
	net.Width, net.Height = cfg.Width, cfg.Height
	if cfg.ChannelBytes != 0 {
		net.ChannelBytes = cfg.ChannelBytes
	}
	if cfg.GOReqVCs != 0 {
		net.GOReqVCs = cfg.GOReqVCs
	}
	if cfg.UORespVCs != 0 {
		net.UORespVCs = cfg.UORespVCs
	}
	if cfg.Bypass != nil {
		net.Bypass = *cfg.Bypass
	}
	return net
}

// scorpioOptions maps a filled Config onto the machine options Run builds a
// SCORPIO machine from.
func scorpioOptions(cfg Config, prof trace.Profile) system.Options {
	opt := system.DefaultOptions(prof)
	opt.Workload = workload(cfg, prof)
	opt.Core = opt.Core.WithMeshSize(cfg.Width, cfg.Height)
	opt.Core.Net = mesh(cfg, opt.Core.Net)
	if cfg.NotifBits != 0 {
		opt.Core.Notif.BitsPerCore = cfg.NotifBits
	}
	if cfg.PipelinedL2 != nil {
		opt.L2.Pipelined = *cfg.PipelinedL2
		if !*cfg.PipelinedL2 {
			opt.Core.NIC.EjectOccupancy = 1
		}
	}
	opt.Core.MainNetworks = cfg.MainNetworks
	opt.Mem.TotalDirCacheBytes = cfg.DirCacheBytes
	return opt
}

// directoryOptions maps a filled Config onto the options of the LPD-D or
// HT-D machine it names.
func directoryOptions(cfg Config, prof trace.Profile) system.DirectoryOptions {
	v := directory.LPD
	if cfg.Protocol == HTD {
		v = directory.HT
	}
	opt := system.DefaultDirectoryOptions(v, prof)
	opt.Workload = workload(cfg, prof)
	opt.Net = mesh(cfg, opt.Net)
	opt.DirCacheBytes = cfg.DirCacheBytes
	return opt
}

// baselineOptions maps a filled Config onto the options of the TokenB or
// INSO machine it names.
func baselineOptions(cfg Config, prof trace.Profile) system.BaselineOptions {
	scheme := system.SchemeTokenB
	if cfg.Protocol == INSO {
		scheme = system.SchemeINSO
	}
	opt := system.DefaultBaselineOptions(scheme, prof)
	opt.Workload = workload(cfg, prof)
	opt.Net = mesh(cfg, opt.Net)
	opt.ExpiryWindow = cfg.ExpiryWindow
	opt.Mem.TotalDirCacheBytes = cfg.DirCacheBytes
	return opt
}
