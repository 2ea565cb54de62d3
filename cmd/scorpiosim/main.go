// Command scorpiosim runs one benchmark on one protocol configuration and
// prints the collected statistics.
//
// Examples:
//
//	scorpiosim -bench barnes                      # SCORPIO, 36 cores
//	scorpiosim -bench lu -protocol LPD-D          # directory baseline
//	scorpiosim -bench vips -protocol INSO -expiry 80 -nodes 16
//	scorpiosim -bench fft -channel 8 -goreq-vcs 2 # design exploration
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"scorpio"
	"scorpio/internal/cli"
)

func main() {
	var (
		bench    = flag.String("bench", "barnes", "benchmark name (see -list)")
		protocol = flag.String("protocol", "SCORPIO", "SCORPIO | LPD-D | HT-D | TokenB | INSO")
		nodes    = flag.Int("nodes", 36, "core count (16, 36, 64, 100)")
		work     = flag.Uint64("work", 400, "measured accesses per core")
		warmup   = flag.Uint64("warmup", 300, "cache-warming accesses per core")
		seed     = flag.Uint64("seed", 1, "workload seed")
		expiry   = flag.Int("expiry", 0, "INSO expiration window in cycles (0 = INSO's 20)")
		channel  = flag.Int("channel", 0, "channel width in bytes (0 = chip's 16)")
		goreqVCs = flag.Int("goreq-vcs", 0, "GO-REQ virtual channels (0 = chip's 4)")
		uoVCs    = flag.Int("uoresp-vcs", 0, "UO-RESP virtual channels (0 = chip's 2)")
		notif    = flag.Int("notif-bits", 0, "notification bits per core (0 = chip's 1)")
		outst    = flag.Int("outstanding", 2, "max outstanding misses per core")
		nonPL    = flag.Bool("non-pipelined", false, "use the non-pipelined uncore (Figure 10's Non-PL)")
		noBypass = flag.Bool("no-bypass", false, "disable lookahead bypassing")
		workers  = flag.Int("workers", 1, "simulation kernel worker goroutines (0 = GOMAXPROCS; TokenB and INSO reject more than one)")
		list     = flag.Bool("list", false, "list benchmarks and exit")

		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON lifecycle trace to this path (view in Perfetto)")
		metricsIvl  = flag.Uint64("metrics-interval", 0, "sample live metrics every N cycles (0 = off)")
		metricsPath = flag.String("metrics-out", "scorpio-metrics.csv", "metrics output path (.json selects JSON, else CSV)")
		watchdog    = flag.Uint64("watchdog", 0, "abort with a network snapshot after N cycles without progress (0 = off)")
		audit       = flag.Bool("audit", false, "attach the online ordering/coherence auditor and latency attributor")
		perfPath    = flag.String("perf-report", "", "attach the engine perf monitor and write its RunReport JSON to this path (\"-\" prints the table only)")
		pprofPath   = flag.String("pprof", "", "write a CPU profile to this path")

		telemetry    = flag.String("telemetry", "", "serve live telemetry on this HTTP address for the duration of the run (\":8090\", or \":0\" for an ephemeral port printed to stderr); attach scorpiotop or curl /metrics")
		telemetryIvl = flag.Uint64("telemetry-interval", 0, "telemetry sample period in cycles (0 = default 1024; requires -telemetry)")
	)
	flag.Parse()

	// Reject observability flag combinations that would silently do nothing.
	if err := cli.CheckFlags(flag.CommandLine, []cli.FlagRule{
		{Flag: "metrics-out", Requires: func() bool { return *metricsIvl > 0 },
			Msg: "-metrics-out has no effect without -metrics-interval N"},
		{Flag: "telemetry-interval", Requires: func() bool { return *telemetry != "" },
			Msg: "-telemetry-interval has no effect without -telemetry ADDR"},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "scorpiosim:", err)
		os.Exit(2)
	}

	stopProfile, err := cli.StartCPUProfile("scorpiosim", *pprofPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfile()

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	if *list {
		fmt.Println(strings.Join(scorpio.Benchmarks(), "\n"))
		return
	}
	w, h := dims(*nodes)
	cfg := scorpio.Config{
		Protocol:       scorpio.Protocol(*protocol),
		Benchmark:      *bench,
		Width:          w,
		Height:         h,
		WorkPerCore:    *work,
		WarmupPerCore:  *warmup,
		Seed:           *seed,
		ExpiryWindow:   *expiry,
		ChannelBytes:   *channel,
		GOReqVCs:       *goreqVCs,
		UORespVCs:      *uoVCs,
		NotifBits:      *notif,
		MaxOutstanding: *outst,
		Workers:        *workers,

		TracePath:       *tracePath,
		MetricsInterval: *metricsIvl,
		WatchdogCycles:  *watchdog,
		Audit:           *audit,
		PerfReportPath:  *perfPath,

		TelemetryAddr:     *telemetry,
		TelemetryInterval: *telemetryIvl,
	}
	if *metricsIvl > 0 {
		cfg.MetricsPath = *metricsPath
	}
	if *nonPL {
		pl := false
		cfg.PipelinedL2 = &pl
	}
	if *noBypass {
		b := false
		cfg.Bypass = &b
	}
	res, err := scorpio.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scorpiosim:", err)
		os.Exit(1)
	}
	fmt.Printf("protocol           %s\n", res.Protocol)
	fmt.Printf("benchmark          %s (%d cores)\n", res.Benchmark, *nodes)
	fmt.Printf("kernel workers     %d\n", *workers)
	fmt.Printf("runtime            %d cycles (%d to last completion)\n", res.Cycles, res.LastDone)
	fmt.Printf("accesses           %d completed, %d measured\n", res.Completed, res.Service.Count)
	fmt.Printf("L2 service latency %.1f cycles (hit %.1f, miss %.1f)\n", res.Service.Value(), res.HitLat.Value(), res.MissLat.Value())
	if res.ServiceHist != nil && res.ServiceHist.Count() > 0 {
		fmt.Printf("latency percentile p50 %d, p99 %d, max %d cycles\n",
			res.ServiceHist.Percentile(50), res.ServiceHist.Percentile(99), res.ServiceHist.Percentile(100))
	}
	fmt.Printf("served by caches   %.1f%% of misses\n", 100*res.ServedByCacheFrac())
	if res.CacheServed.Count() > 0 {
		fmt.Printf("cache-served miss  %s\n", res.CacheServed.String())
	}
	if res.MemServed.Count() > 0 {
		fmt.Printf("memory-served miss %s\n", res.MemServed.String())
	}
	if res.OrderingLat.Count > 0 {
		fmt.Printf("ordering latency   %.1f cycles at the NIC\n", res.OrderingLat.Value())
	}
	fmt.Printf("network            %d flits routed, %d bypassed\n", res.FlitsRouted, res.Bypasses)
	if res.DirTransactions > 0 {
		fmt.Printf("directory          %d transactions, %d cache misses\n", res.DirTransactions, res.DirCacheMisses)
	}
	if res.Obs != nil {
		fmt.Print(res.Obs.Metrics.Heatmap())
	}
	if res.Obs != nil && res.Obs.Auditor != nil {
		fmt.Println(res.Obs.Auditor.Summary())
	}
	if res.Obs != nil && res.Obs.Attrib != nil {
		if t := res.Obs.Attrib.Table(); t != "" {
			fmt.Print(t)
		}
	}
	if res.Obs != nil && res.Obs.PerfReport != nil {
		fmt.Print(res.Obs.PerfReport.Table())
	}
}

func dims(nodes int) (int, int) {
	k := 1
	for k*k < nodes {
		k++
	}
	return k, k
}
