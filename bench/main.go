// Command bench is the simulator's benchmark: it runs the workloads of
// BENCHMARK.json, checks every simulated result, and prints each metric by
// name and unit, ending with one JSON line.
//
//	go run . -workload chip36-fft -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same simulated inputs")
	seconds := flag.Float64("seconds", 15, "repeat each workload until this many seconds have passed")
	traced := flag.Int("trace", 0, "0: report end-to-end metrics; 1: add the traced run and report per-layer metrics")
	flag.Parse()

	if err := validateSpecs(); err != nil {
		fatal(err)
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seed == 0 {
		// The simulator reads seed 0 as "use the default seed 1".
		fatal(fmt.Errorf("-seed must be positive"))
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	var run []workload
	var names []string
	for _, w := range workloads(false) {
		names = append(names, w.name)
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fatal(fmt.Errorf("unknown workload %q (have %s, all)", *name, strings.Join(names, ", ")))
	}

	var parts []namedReport
	for _, w := range run {
		rep := runWorkload(w, cfg, os.Stderr)
		prefix := ""
		if len(run) > 1 {
			prefix = w.name + "."
		}
		if miss := rep.missing(specs); len(miss) > 0 {
			rep.tally.check(fmt.Errorf("%s: metrics not reported: %s", w.name, strings.Join(miss, ", ")))
		}
		fmt.Printf("# %s (seed %d): %d points attempted, %d failed\n", w.name, cfg.seed, rep.tally.attempted, rep.tally.failed)
		rep.writeTable(os.Stdout, prefix)
		for _, p := range rep.tally.problems {
			fmt.Fprintf(os.Stderr, "%s: FAIL %s\n", w.name, p)
		}
		parts = append(parts, namedReport{prefix: prefix, rep: rep})
	}
	line, err := jsonLine(parts, specs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	for _, p := range parts {
		if !p.rep.tally.correct() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
