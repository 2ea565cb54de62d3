package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// scorpiosim runs the command in a child process of the test binary with
// args and returns its combined output.
func scorpiosim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDefaultFlagsRunEveryProtocol$")
	cmd.Env = append(os.Environ(), "SCORPIOSIM_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestDefaultFlagsRunEveryProtocol: the default flags set no knob that any
// protocol ignores, so every protocol runs with them; a knob its protocol
// ignores exits non-zero with an error naming it.
func TestDefaultFlagsRunEveryProtocol(t *testing.T) {
	if args := os.Getenv("SCORPIOSIM_ARGS"); args != "" {
		os.Args = append([]string{"scorpiosim"}, strings.Fields(args)...)
		main()
		return
	}
	for _, p := range []string{"SCORPIO", "LPD-D", "HT-D", "TokenB", "INSO"} {
		out, err := scorpiosim(t, "-protocol", p, "-nodes", "16", "-work", "10", "-warmup", "10")
		if err != nil {
			t.Errorf("-protocol %s with default flags: %v\n%s", p, err, out)
		} else if !strings.Contains(out, "protocol           "+p) {
			t.Errorf("-protocol %s: output names no %s run:\n%s", p, p, out)
		}
	}
	out, err := scorpiosim(t, "-protocol", "LPD-D", "-notif-bits", "2")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(out, "NotifBits") {
		t.Errorf("-protocol LPD-D -notif-bits 2: %v, want a non-zero exit naming NotifBits\n%s", err, out)
	}
}
