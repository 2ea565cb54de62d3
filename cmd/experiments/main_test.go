package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestOnlyRejectsUnknownNames: a mistyped -only name exits with status 2
// and lists the valid names, instead of running nothing and succeeding.
func TestOnlyRejectsUnknownNames(t *testing.T) {
	if os.Getenv("EXPERIMENTS_MAIN") == "1" {
		os.Args = []string{"experiments", "-quick", "-only", "table1,fig77"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOnlyRejectsUnknownNames$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("experiments -only table1,fig77: %v, want exit status 2\n%s", err, out)
	}
	for _, want := range []string{`unknown name "fig77"`, "table1,service,table2,fig6a,", ",fig10"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "Table 1") {
		t.Errorf("ran a section before rejecting the name:\n%s", out)
	}
}

func TestSelection(t *testing.T) {
	if want, err := selection(""); want != nil || err != nil {
		t.Fatalf(`selection("") = %v, %v; want every section`, want, err)
	}
	want, err := selection("fig7, table1")
	if err != nil || len(want) != 2 || !want["fig7"] || !want["table1"] {
		t.Fatalf(`selection("fig7, table1") = %v, %v`, want, err)
	}
}
