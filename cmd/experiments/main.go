// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5). By default it runs everything at full scale;
// -only selects a subset and -quick shrinks the workloads for a fast pass.
//
//	experiments                 # everything (minutes)
//	experiments -only fig6a,fig7
//	experiments -quick -only fig8a
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"scorpio"
	"scorpio/internal/cli"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated subset: table1,table2,service,fig6a,fig6a64,fig6b,fig6c,fig7,fig8a,fig8b,fig8c,fig8d,fig9,fig10")
		quick   = flag.Bool("quick", false, "reduced workloads (CI-sized)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		workers = flag.Int("workers", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")

		tracePath  = flag.String("trace", "", "run one traced SCORPIO point and write Chrome trace-event JSON to this path")
		metricsIvl = flag.Uint64("metrics-interval", 0, "metrics sampling interval for the traced/instrumented point (0 = off)")
		watchdog   = flag.Uint64("watchdog", 0, "arm the forward-progress watchdog on every run (cycles without progress; 0 = off)")
		audit      = flag.Bool("audit", false, "attach the online ordering/coherence auditor to every run")
		perfPath   = flag.String("perf-report", "", "run one instrumented SCORPIO point and write its perf RunReport JSON to this path")
		pprofPath  = flag.String("pprof", "", "write a CPU profile to this path")

		telemetry    = flag.String("telemetry", "", "run one instrumented SCORPIO point serving live telemetry on this HTTP address (attach scorpiotop or curl /metrics)")
		telemetryIvl = flag.Uint64("telemetry-interval", 0, "telemetry sample period in cycles (0 = default 1024; requires -telemetry)")
	)
	flag.Parse()

	instrumented := func() bool { return *tracePath != "" || *perfPath != "" || *telemetry != "" }
	if err := cli.CheckFlags(flag.CommandLine, []cli.FlagRule{
		{Flag: "metrics-interval", Requires: instrumented,
			Msg: "-metrics-interval only applies to the traced/instrumented point; it needs -trace PATH, -perf-report PATH or -telemetry ADDR"},
		{Flag: "telemetry-interval", Requires: func() bool { return *telemetry != "" },
			Msg: "-telemetry-interval has no effect without -telemetry ADDR"},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	stopProfile, err := cli.StartCPUProfile("experiments", *pprofPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfile()

	scale := scorpio.FullScale
	if *quick {
		scale = scorpio.QuickScale
	}
	scale.Seed = *seed
	scale.Workers = *workers
	scale.WatchdogCycles = *watchdog
	scale.Audit = *audit

	if instrumented() {
		// One dedicated instrumented 36-core SCORPIO run; the sweeps below
		// stay uninstrumented so tracing/monitoring never perturbs the
		// figures.
		cfg := scorpio.Config{
			Protocol: scorpio.SCORPIO, Benchmark: "barnes",
			WorkPerCore: scale.Work, WarmupPerCore: scale.Warmup,
			Seed: scale.Seed, WatchdogCycles: *watchdog,
			TracePath:       *tracePath,
			MetricsInterval: *metricsIvl,
			Audit:           *audit,
			PerfReportPath:  *perfPath,

			TelemetryAddr:     *telemetry,
			TelemetryInterval: *telemetryIvl,
		}
		if *metricsIvl > 0 {
			base := *tracePath
			if base == "" {
				base = *perfPath
			}
			if base != "" {
				// Telemetry-only instrumented runs keep the series in memory
				// (and live on /metrics) instead of inventing a file name.
				cfg.MetricsPath = strings.TrimSuffix(base, ".json") + "-metrics.csv"
			}
		}
		res, err := scorpio.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: instrumented run: %v\n", err)
			os.Exit(1)
		}
		if *tracePath != "" {
			fmt.Printf("traced SCORPIO/barnes run: %d cycles, trace written to %s\n\n", res.Cycles, *tracePath)
		}
		if res.Obs != nil && res.Obs.PerfReport != nil {
			fmt.Printf("instrumented SCORPIO/barnes run: report written to %s\n%s\n", *perfPath, res.Obs.PerfReport.Table())
		}
	}
	effective := *workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("experiments: up to %d concurrent simulations per sweep\n\n", effective)

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
		os.Exit(1)
	}
	section := func(name string, run func() (string, error)) {
		if !sel(name) {
			return
		}
		start := time.Now()
		out, err := run()
		if err != nil {
			fail(name, err)
		}
		fmt.Println(out)
		fmt.Printf("[%s finished in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	section("table1", func() (string, error) { return scorpio.Table1(), nil })
	section("service", func() (string, error) {
		fig, err := scorpio.ServiceLatencySummary(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
	section("table2", func() (string, error) { return scorpio.Table2(), nil })
	section("fig6a", func() (string, error) {
		fig, err := scorpio.Figure6a(scale, 36)
		if err != nil {
			return "", err
		}
		return fig.String() + "\n" + fig.Chart() + "\n" + scorpio.Headline(fig), nil
	})
	section("fig6a64", func() (string, error) {
		fig, err := scorpio.Figure6a(scale, 64)
		if err != nil {
			return "", err
		}
		return fig.String() + "\n" + scorpio.Headline(fig), nil
	})
	section("fig6b", func() (string, error) {
		fig, err := scorpio.Figure6b(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
	section("fig6c", func() (string, error) {
		fig, err := scorpio.Figure6c(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
	section("fig7", func() (string, error) {
		fig, err := scorpio.Figure7(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
	section("fig8a", func() (string, error) {
		fig, err := scorpio.Figure8a(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
	section("fig8b", func() (string, error) {
		fig, err := scorpio.Figure8b(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
	section("fig8c", func() (string, error) {
		fig, err := scorpio.Figure8c(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
	section("fig8d", func() (string, error) {
		fig, err := scorpio.Figure8d(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
	section("fig9", func() (string, error) {
		p, a := scorpio.Figure9()
		return p.String() + "\n" + a.String(), nil
	})
	section("fig10", func() (string, error) {
		fig, err := scorpio.Figure10(scale)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
}
