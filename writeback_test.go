package scorpio

import (
	"fmt"
	"testing"
)

// TestSmallL2Sweep drives dirty evictions through every machine: each of the
// five protocols runs barnes, fft, lu and canneal on 4×4 with a 1 KB L2 and
// the auditor on, over five seeds. No default-size run evicts a dirty line,
// so this is where the writeback races (data before PutM, a probe after it)
// show up. Every run must finish, write back at least once and stay
// audit-clean.
func TestSmallL2Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("100 audited runs")
	}
	for _, p := range []Protocol{SCORPIO, LPDD, HTD, TokenB, INSO} {
		for _, b := range []string{"barnes", "fft", "lu", "canneal"} {
			for seed := uint64(1); seed <= 5; seed++ {
				cfg := Config{Protocol: p, Benchmark: b, Width: 4, Height: 4, WorkPerCore: 60, WarmupPerCore: 40,
					Seed: seed, Audit: true, CycleLimit: 200_000}
				t.Run(fmt.Sprintf("%s/%s/seed=%d", p, b, seed), func(t *testing.T) {
					r, err := runL2Bytes(cfg, 1024)
					if err != nil {
						t.Fatal(err)
					}
					if r.Writebacks == 0 {
						t.Fatal("no dirty eviction: the run does not reach the writeback path")
					}
				})
			}
		}
	}
}
