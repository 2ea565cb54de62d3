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
	"slices"
	"strings"
	"time"

	"scorpio"
	"scorpio/internal/cli"
)

// section is one table or figure: its -only name and how to render it.
type section struct {
	name string
	run  func(scorpio.Scale) (string, error)
}

// sections lists every table and figure in the order they print.
var sections = []section{
	{"table1", func(scorpio.Scale) (string, error) { return scorpio.Table1(), nil }},
	{"service", func(s scorpio.Scale) (string, error) { return str(scorpio.ServiceLatencySummary(s)) }},
	{"table2", func(scorpio.Scale) (string, error) { return scorpio.Table2(), nil }},
	{"fig6a", func(s scorpio.Scale) (string, error) {
		fig, err := scorpio.Figure6a(s, 36)
		if err != nil {
			return "", err
		}
		return fig.String() + "\n" + fig.Chart() + "\n" + scorpio.Headline(fig), nil
	}},
	{"fig6a64", func(s scorpio.Scale) (string, error) {
		fig, err := scorpio.Figure6a(s, 64)
		if err != nil {
			return "", err
		}
		return fig.String() + "\n" + scorpio.Headline(fig), nil
	}},
	{"fig6b", func(s scorpio.Scale) (string, error) { return str(scorpio.Figure6b(s)) }},
	{"fig6c", func(s scorpio.Scale) (string, error) { return str(scorpio.Figure6c(s)) }},
	{"fig7", func(s scorpio.Scale) (string, error) { return str(scorpio.Figure7(s)) }},
	{"fig8a", func(s scorpio.Scale) (string, error) { return str(scorpio.Figure8a(s)) }},
	{"fig8b", func(s scorpio.Scale) (string, error) { return str(scorpio.Figure8b(s)) }},
	{"fig8c", func(s scorpio.Scale) (string, error) { return str(scorpio.Figure8c(s)) }},
	{"fig8d", func(s scorpio.Scale) (string, error) { return str(scorpio.Figure8d(s)) }},
	{"fig9", func(scorpio.Scale) (string, error) {
		p, a := scorpio.Figure9()
		return p.String() + "\n" + a.String(), nil
	}},
	{"fig10", func(s scorpio.Scale) (string, error) { return str(scorpio.Figure10(s)) }},
}

// str renders a figure a sweep returned, passing its error through.
func str(fig scorpio.Figure, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fig.String(), nil
}

// sectionNames lists the -only names, comma-separated.
func sectionNames() string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return strings.Join(names, ",")
}

// selection parses -only: nil selects every section, and a name that is
// not a section is an error listing the valid ones.
func selection(only string) (map[string]bool, error) {
	if only == "" {
		return nil, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if !slices.ContainsFunc(sections, func(s section) bool { return s.name == name }) {
			return nil, fmt.Errorf("-only: unknown name %q; valid names: %s", name, sectionNames())
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	var (
		only    = flag.String("only", "", "comma-separated subset: "+sectionNames())
		quick   = flag.Bool("quick", false, "reduced workloads (CI-sized)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		workers = flag.Int("workers", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")

		watchdog  = flag.Uint64("watchdog", 0, "arm the forward-progress watchdog on every run (cycles without progress; 0 = off)")
		audit     = flag.Bool("audit", false, "attach the online ordering/coherence auditor to every run")
		pprofPath = flag.String("pprof", "", "write a CPU profile to this path")
	)
	flag.Parse()

	want, err := selection(*only)
	if err != nil {
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

	effective := *workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("experiments: up to %d concurrent simulations per sweep\n\n", effective)

	for _, sec := range sections {
		if want != nil && !want[sec.name] {
			continue
		}
		start := time.Now()
		out, err := sec.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", sec.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s finished in %s]\n\n", sec.name, time.Since(start).Round(time.Millisecond))
	}
}
