package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newTestFlagSet builds a flag surface for the validator, parsed over args:
// two primaries (-audit, -telemetry) and dependent flags that require them.
// The names are the validator's fixtures; no tool needs to define them.
func newTestFlagSet(t *testing.T, args []string) (*flag.FlagSet, []FlagRule) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	metricsOut := fs.String("metrics-out", "", "")
	fs.Uint64("metrics-interval", 0, "")
	audit := fs.Bool("audit", false, "")
	fs.Uint64("audit-every", 0, "")
	telemetry := fs.String("telemetry", "", "")
	fs.Uint64("telemetry-interval", 0, "")
	fs.Int("sse-queue", 0, "")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	rules := []FlagRule{
		{Flag: "metrics-interval", Requires: func() bool { return *metricsOut != "" },
			Msg: "-metrics-interval has no effect without -metrics-out"},
		{Flag: "audit-every", Requires: func() bool { return *audit },
			Msg: "-audit-every has no effect without -audit"},
		{Flag: "telemetry-interval", Requires: func() bool { return *telemetry != "" },
			Msg: "-telemetry-interval has no effect without -telemetry"},
		{Flag: "sse-queue", Requires: func() bool { return *telemetry != "" },
			Msg: "-sse-queue has no effect without -telemetry"},
	}
	return fs, rules
}

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; "" means the combination is valid
	}{
		{name: "no flags", args: nil},
		{name: "primary alone", args: []string{"-telemetry", ":0"}},
		{name: "dependent with primary",
			args: []string{"-telemetry", ":0", "-telemetry-interval", "512"}},
		{name: "dependent without primary",
			args:    []string{"-telemetry-interval", "512"},
			wantErr: "-telemetry-interval has no effect without -telemetry"},
		{name: "sse queue without telemetry",
			args:    []string{"-sse-queue", "8"},
			wantErr: "-sse-queue has no effect without -telemetry"},
		{name: "metrics interval without out",
			args:    []string{"-metrics-interval", "100"},
			wantErr: "-metrics-interval has no effect without -metrics-out"},
		{name: "metrics interval with out",
			args: []string{"-metrics-out", "m.csv", "-metrics-interval", "100"}},
		{name: "audit every without audit",
			args:    []string{"-audit-every", "10"},
			wantErr: "-audit-every has no effect without -audit"},
		{name: "audit every with audit",
			args: []string{"-audit", "-audit-every", "10"}},
		{name: "first failing rule wins",
			args:    []string{"-metrics-interval", "1", "-audit-every", "1"},
			wantErr: "-metrics-interval",
		},
		// A dependent flag explicitly set to its zero value is still *set*:
		// the operator typed it, so the combination check must still fire.
		{name: "zero-valued dependent still checked",
			args:    []string{"-telemetry-interval", "0"},
			wantErr: "-telemetry-interval has no effect without -telemetry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, rules := newTestFlagSet(t, tc.args)
			err := CheckFlags(fs, rules)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckFlags(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckFlags(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestStartCPUProfile(t *testing.T) {
	stop, err := StartCPUProfile("tool", "")
	if err != nil {
		t.Fatalf("empty path: %v", err)
	}
	stop() // must be callable

	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err = StartCPUProfile("tool", path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000; i++ {
		_ = i * i // give the profiler something to sample
	}
	stop()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("profile file is empty")
	}

	if _, err := StartCPUProfile("mytool", filepath.Join(t.TempDir(), "no", "such", "dir", "p")); err == nil {
		t.Fatal("unwritable path: want error")
	} else if !strings.Contains(err.Error(), "mytool") {
		t.Fatalf("error %q does not carry the tool prefix", err)
	}
}
