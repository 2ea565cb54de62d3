// Package cli holds the small helpers shared by the repo's command-line
// tools: CPU-profile setup and declarative flag-combination validation.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

// StartCPUProfile begins a CPU profile at path and returns a stop function to
// defer. An empty path is a no-op (the stop function is still non-nil). tool
// prefixes error messages ("scorpiosim: ...").
//
// This covers ahead-of-time profiling of a whole process; a run with live
// telemetry attached (-telemetry) can instead be profiled on demand, while it
// executes, through the exporter's stdlib pprof mux
// (http://ADDR/debug/pprof/profile).
func StartCPUProfile(tool, path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tool, err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", tool, err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// FlagRule declares one flag-combination requirement: when Flag was
// explicitly set on the command line, Requires must report true, otherwise
// the rule fails with Msg. Rules catch observability flag combinations that
// would silently do nothing — almost always operator mistakes.
type FlagRule struct {
	// Flag is the name of the flag that triggers the rule when set.
	Flag string
	// Requires reports whether the combination is valid (evaluated only when
	// Flag was set).
	Requires func() bool
	// Msg explains the failure ("-metrics-out has no effect without
	// -metrics-interval N").
	Msg string
}

// CheckFlags validates every rule against the set of explicitly-provided
// flags in fs (which must already be parsed) and returns the first failure.
func CheckFlags(fs *flag.FlagSet, rules []FlagRule) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range rules {
		if set[r.Flag] && !r.Requires() {
			return fmt.Errorf("%s", r.Msg)
		}
	}
	return nil
}
