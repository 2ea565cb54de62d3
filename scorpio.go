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
//     directory baselines, workload profiles) live in internal/ packages and
//     are assembled through the option types aliased here.
package scorpio

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"

	"scorpio/internal/coherence"
	"scorpio/internal/core"
	"scorpio/internal/directory"
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

// ScorpioOptions aliases the full SCORPIO machine options for advanced use.
type ScorpioOptions = system.Options

// ChipConfig aliases the ordered-network configuration (Table 1 defaults
// via DefaultChipConfig).
type ChipConfig = core.Config

// DefaultChipConfig returns the fabricated chip's configuration.
func DefaultChipConfig() ChipConfig { return core.DefaultConfig() }

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
	// ExpiryWindow is INSO's expiration window in cycles (default 20).
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
	ChannelBytes int
	GOReqVCs     int
	UORespVCs    int
	NotifBits    int
	Bypass       *bool // nil = chip default (enabled)
	PipelinedL2  *bool // nil = pipelined (Figure 10's PL)
	// MainNetworks replicates the main mesh (Section 5.3's throughput
	// extension); 0 or 1 is the chip's single network.
	MainNetworks int
	// UseL1 interposes the tile layer (split write-through L1s behind the
	// AHB single-transaction rule) between the cores and the L2s. The
	// default matches the paper's trace-driven methodology (inject straight
	// into the L2's AHB interface).
	UseL1 bool
	// CycleLimit aborts runaway runs (default 50M cycles).
	CycleLimit uint64
	// Workers sets the simulation kernel's worker count for SCORPIO and
	// directory runs. 0 or 1 keeps the classic serial tick loop; N > 1
	// shards the components over N goroutines with identical results.
	// TokenB/INSO always run serially (their orderers are shared state).
	Workers int
	// DisableIdleSkip turns off the kernel's activity engine, stepping every
	// component every cycle instead of parking quiescent nodes and
	// fast-forwarding fully idle epochs. Results are bit-identical either
	// way; the flag exists for A/B validation and overhead measurement.
	DisableIdleSkip bool

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
	// Audit attaches the online ordering/coherence auditor: every NIC's
	// commit stream is cross-checked against a canonical total order, MOSI
	// line states against a shadow directory, and flit delivery against
	// duplicate/drop invariants. The first violation aborts the run with a
	// diagnosis naming the culprit NICs/line. Also enables the per-miss
	// latency attributor (Result.Obs.Attrib).
	Audit bool
	// AuditEvery sets the auditor's stale-sharer sweep period in cycles
	// (0 = the auditor's default). Requires Audit.
	AuditEvery int
	// PerfReportPath attaches the engine self-observability monitor
	// (internal/obs/perfmon) and writes its RunReport JSON — per-worker
	// phase-time decomposition, barrier spin/park split, activity-engine
	// census, rebalance log, host metadata — to this path after the run.
	// The report also stays readable in Result.Obs.PerfReport. "-" attaches
	// the monitor without writing a file.
	PerfReportPath string
	// TelemetryAddr starts the live HTTP exporter on this listen address for
	// the duration of the run (":8090", or ":0" for an ephemeral port printed
	// to stderr): /metrics OpenMetrics text, /stream SSE sample ticks,
	// /snapshot deep state, /healthz, /debug/pprof. Attach cmd/scorpiotop to
	// watch the run live. The server shuts down when the run returns.
	TelemetryAddr string
	// TelemetryInterval is the exporter's sample period in cycles (default
	// 1024). Requires TelemetryAddr.
	TelemetryInterval uint64
	// TelemetrySSEQueue bounds each /stream client's event queue (default
	// 16); a client that falls this far behind drops ticks and is eventually
	// disconnected — the simulation never waits. Requires TelemetryAddr.
	TelemetrySSEQueue int
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
	canon := fmt.Sprintf("proto=%s bench=%s mesh=%dx%d work=%d warmup=%d out=%d seed=%d expiry=%d scale=%g dir=%d ch=%d goreq=%d uoresp=%d notif=%d bypass=%s pl2=%s nets=%d l1=%v",
		c.Protocol, c.Benchmark, c.Width, c.Height, c.WorkPerCore, c.WarmupPerCore,
		c.MaxOutstanding, c.Seed, c.ExpiryWindow, c.IntensityScale, c.DirCacheBytes,
		c.ChannelBytes, c.GOReqVCs, c.UORespVCs, c.NotifBits, tri(c.Bypass), tri(c.PipelinedL2),
		c.MainNetworks, c.UseL1)
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
		AuditEvery:        c.AuditEvery,
		Perf:              c.PerfReportPath != "",
		TelemetryAddr:     c.TelemetryAddr,
		TelemetryInterval: c.TelemetryInterval,
		TelemetrySSEQueue: c.TelemetrySSEQueue,
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

// fill applies defaults.
func (c *Config) fill() error {
	if c.Protocol == "" {
		c.Protocol = SCORPIO
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
	if c.MaxOutstanding < 0 {
		return fmt.Errorf("scorpio: Config.MaxOutstanding must not be negative, got %d", c.MaxOutstanding)
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
	if c.AuditEvery != 0 && !c.Audit {
		return fmt.Errorf("scorpio: Config.AuditEvery requires Config.Audit")
	}
	if c.MetricsPath != "" && c.MetricsInterval == 0 {
		return fmt.Errorf("scorpio: Config.MetricsPath requires Config.MetricsInterval > 0")
	}
	if c.TelemetryInterval != 0 && c.TelemetryAddr == "" {
		return fmt.Errorf("scorpio: Config.TelemetryInterval requires Config.TelemetryAddr")
	}
	if c.TelemetrySSEQueue != 0 && c.TelemetryAddr == "" {
		return fmt.Errorf("scorpio: Config.TelemetrySSEQueue requires Config.TelemetryAddr")
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
	prof, err := trace.ByName(cfg.Benchmark)
	if err != nil {
		return Result{}, err
	}
	if cfg.IntensityScale > 0 {
		prof.IssueProb *= cfg.IntensityScale
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
	case TokenB, INSO:
		b, err := system.NewBaseline(baselineOptions(cfg, prof))
		if err != nil {
			return Result{}, err
		}
		run, o = b.Run, b.Obs
	default:
		return Result{}, fmt.Errorf("scorpio: unknown protocol %q", cfg.Protocol)
	}
	defer o.CloseTelemetry()
	r, err := run(cfg.CycleLimit)
	if err != nil {
		return r, err
	}
	return r, writeObsArtifacts(cfg, r)
}

// scorpioOptions maps a filled Config onto the machine options Run builds a
// SCORPIO machine from.
func scorpioOptions(cfg Config, prof trace.Profile) system.Options {
	opt := system.DefaultOptions(prof)
	opt.Core = opt.Core.WithMeshSize(cfg.Width, cfg.Height)
	opt.WorkPerCore = cfg.WorkPerCore
	opt.WarmupPerCore = cfg.WarmupPerCore
	opt.MaxOutstanding = cfg.MaxOutstanding
	opt.Seed = cfg.Seed
	opt.Workers = cfg.Workers
	opt.DisableIdleSkip = cfg.DisableIdleSkip
	if cfg.ChannelBytes != 0 {
		opt.Core.Net.ChannelBytes = cfg.ChannelBytes
	}
	if cfg.GOReqVCs != 0 {
		opt.Core.Net.GOReqVCs = cfg.GOReqVCs
	}
	if cfg.UORespVCs != 0 {
		opt.Core.Net.UORespVCs = cfg.UORespVCs
	}
	if cfg.NotifBits != 0 {
		opt.Core.Notif.BitsPerCore = cfg.NotifBits
	}
	if cfg.Bypass != nil {
		opt.Core.Net.Bypass = *cfg.Bypass
	}
	if cfg.PipelinedL2 != nil {
		opt.L2.Pipelined = *cfg.PipelinedL2
		if !*cfg.PipelinedL2 {
			opt.Core.NIC.EjectOccupancy = 1
		}
	}
	opt.Core.MainNetworks = cfg.MainNetworks
	opt.UseL1 = cfg.UseL1
	opt.L2.DataFlits = opt.Core.Net.DataPacketFlits()
	opt.Mem.TotalDirCacheBytes = cfg.DirCacheBytes
	// Aggressive cores (Figure 8d's study) need matching miss resources.
	if cfg.MaxOutstanding > opt.L2.MSHRs {
		opt.L2.MSHRs = cfg.MaxOutstanding
		opt.L2.CoreQueueDepth = 2 * cfg.MaxOutstanding
		opt.Core.NIC.MaxPendingNotifs = cfg.MaxOutstanding
	}
	opt.Obs = cfg.obsOptions()
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
	opt.Net.Width, opt.Net.Height = cfg.Width, cfg.Height
	if cfg.ChannelBytes != 0 {
		opt.Net.ChannelBytes = cfg.ChannelBytes
	}
	if cfg.Bypass != nil {
		opt.Net.Bypass = *cfg.Bypass
	}
	opt.L2 = directory.L2Config{}
	opt.Home = directory.HomeConfig{}
	opt.DirCacheBytes = cfg.DirCacheBytes
	opt.WorkPerCore = cfg.WorkPerCore
	opt.WarmupPerCore = cfg.WarmupPerCore
	opt.MaxOutstanding = cfg.MaxOutstanding
	opt.Seed = cfg.Seed
	opt.Workers = cfg.Workers
	opt.DisableIdleSkip = cfg.DisableIdleSkip
	if cfg.MaxOutstanding > 2 {
		opt.L2 = directory.DefaultL2Config(opt.Net.Nodes(), v)
		opt.L2.DataFlits = opt.Net.DataPacketFlits()
		opt.L2.MSHRs = cfg.MaxOutstanding
		opt.L2.CoreQueueDepth = 2 * cfg.MaxOutstanding
	}
	opt.Obs = cfg.obsOptions()
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
	opt.Net.Width, opt.Net.Height = cfg.Width, cfg.Height
	opt.ExpiryWindow = cfg.ExpiryWindow
	opt.WorkPerCore = cfg.WorkPerCore
	opt.WarmupPerCore = cfg.WarmupPerCore
	opt.MaxOutstanding = cfg.MaxOutstanding
	opt.Seed = cfg.Seed
	opt.DisableIdleSkip = cfg.DisableIdleSkip
	opt.L2.DataFlits = opt.Net.DataPacketFlits()
	if cfg.MaxOutstanding > opt.L2.MSHRs {
		opt.L2.MSHRs = cfg.MaxOutstanding
		opt.L2.CoreQueueDepth = 2 * cfg.MaxOutstanding
	}
	opt.Obs = cfg.obsOptions()
	return opt
}

// NewScorpioSystem exposes the full machine for programmatic use (the
// examples drive it directly).
func NewScorpioSystem(opt ScorpioOptions) (*system.Scorpio, error) {
	return system.NewScorpio(opt)
}

// ProfileByName returns a benchmark profile.
func ProfileByName(name string) (Profile, error) { return trace.ByName(name) }

// DefaultScorpioOptions returns chip-faithful options for a profile.
func DefaultScorpioOptions(prof Profile) ScorpioOptions { return system.DefaultOptions(prof) }

// L2Config aliases the snoopy controller configuration.
type L2Config = coherence.Config
