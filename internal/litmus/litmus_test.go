package litmus

import "testing"

// machines are the three snoopy machines, at 4×4, that every campaign
// runs on.
var machines = []Machine{
	{Protocol: "SCORPIO", Width: 4, Height: 4},
	{Protocol: "TokenB", Width: 4, Height: 4},
	{Protocol: "INSO", Width: 4, Height: 4},
}

func TestSuiteHoldsSequentialConsistency(t *testing.T) {
	runs := 12
	if testing.Short() {
		runs = 3
	}
	for _, test := range Suite() {
		test := test
		t.Run(test.Name, func(t *testing.T) {
			for _, m := range machines {
				t.Run(m.Protocol, func(t *testing.T) {
					res, err := Run(m, test, runs, 0xC0FFEE)
					if err != nil {
						t.Fatal(err)
					}
					if res.Violations != 0 {
						t.Fatalf("%s: %d/%d runs violated sequential consistency; outcomes: %v",
							test.Name, res.Violations, res.Runs, res.Outcomes)
					}
					if len(res.Outcomes) == 0 {
						t.Fatal("no outcomes recorded")
					}
				})
			}
		})
	}
}

func TestOutcomesVaryAcrossRuns(t *testing.T) {
	// SB with random skews should produce more than one legal outcome —
	// evidence the campaign explores interleavings rather than replaying one.
	var sb Test
	for _, test := range Suite() {
		if test.Name == "SB" {
			sb = test
		}
	}
	res, err := Run(machines[0], sb, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) < 2 {
		t.Fatalf("only one outcome observed (%v); skews not exploring interleavings", res.Outcomes)
	}
}

func TestForbiddenPredicatesFire(t *testing.T) {
	// Sanity-check the predicates themselves against hand-built outcomes.
	for _, test := range Suite() {
		switch test.Name {
		case "MP":
			if !test.Forbidden([][]uint64{{}, {1, 0}}) {
				t.Fatal("MP predicate misses the forbidden outcome")
			}
			if test.Forbidden([][]uint64{{}, {1, 1}}) {
				t.Fatal("MP predicate rejects a legal outcome")
			}
		case "SB":
			if !test.Forbidden([][]uint64{{0}, {0}}) {
				t.Fatal("SB predicate misses the forbidden outcome")
			}
			if test.Forbidden([][]uint64{{0}, {1}}) {
				t.Fatal("SB predicate rejects a legal outcome")
			}
		case "IRIW":
			if !test.Forbidden([][]uint64{{}, {}, {1, 0}, {1, 0}}) {
				t.Fatal("IRIW predicate misses the forbidden outcome")
			}
		case "CoRR":
			if !test.Forbidden([][]uint64{{}, {2, 1}}) {
				t.Fatal("CoRR predicate misses the forbidden outcome")
			}
		}
	}
}

func TestRunRejectsOversizedTests(t *testing.T) {
	big := Test{Name: "too-big", Threads: make([][]Op, 50)}
	if _, err := Run(machines[0], big, 1, 1); err == nil {
		t.Fatal("a 50-thread test cannot fit a 16-core machine")
	}
}

// TestRunRejectsMachinesItCannotBuild: an unknown protocol, or a second
// main network on a machine that has one mesh, is an error rather than a
// campaign on some other machine.
func TestRunRejectsMachinesItCannotBuild(t *testing.T) {
	for _, m := range []Machine{
		{Protocol: "MESI", Width: 4, Height: 4},
		{Protocol: "TokenB", Width: 4, Height: 4, MainNetworks: 2},
		{Protocol: "INSO", Width: 4, Height: 4, MainNetworks: 2},
	} {
		if _, err := Run(m, Suite()[0], 1, 1); err == nil {
			t.Errorf("%+v: campaign ran, want an error", m)
		}
	}
}

func TestSuiteHoldsOnMultipleMainNetworks(t *testing.T) {
	// Section 5.3: striping over several main networks must not affect
	// correctness because delivery is decoupled from ordering.
	for _, test := range Suite() {
		res, err := Run(Machine{Width: 4, Height: 4, MainNetworks: 2}, test, 6, 99)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violations != 0 {
			t.Fatalf("%s violated SC on a dual-network machine: %v", test.Name, res.Outcomes)
		}
	}
}

func TestPetersonMutualExclusion(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	for _, m := range machines {
		t.Run(m.Protocol, func(t *testing.T) {
			res, err := RunMutex(m, rounds, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Final != res.Expected {
				t.Fatalf("lost updates: counter = %d, want %d (spins %d)", res.Final, res.Expected, res.SpinLoops)
			}
			if res.SpinLoops == 0 {
				t.Log("note: contenders never overlapped; mutual exclusion untested under contention this run")
			}
			t.Logf("Peterson: %d increments correct in %d cycles, %d spin iterations", res.Final, res.Cycles, res.SpinLoops)
		})
	}
}

func TestBakeryMutualExclusionFourThreads(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for _, m := range machines {
		t.Run(m.Protocol, func(t *testing.T) {
			res, err := RunBakery(m, 4, rounds, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Final != res.Expected {
				t.Fatalf("lost updates: counter = %d, want %d (spins %d)", res.Final, res.Expected, res.SpinLoops)
			}
			t.Logf("bakery 4x%d: counter %d correct in %d cycles, %d spins", rounds, res.Final, res.Cycles, res.SpinLoops)
		})
	}
}

func TestBakeryEightThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier contention run")
	}
	res, err := RunBakery(machines[0], 8, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != res.Expected {
		t.Fatalf("lost updates: counter = %d, want %d", res.Final, res.Expected)
	}
}
