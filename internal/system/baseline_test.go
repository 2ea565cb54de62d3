package system

import (
	"testing"

	"scorpio/internal/trace"
)

func runBaseline(t *testing.T, scheme OrderingScheme, window int, bench string) Results {
	t.Helper()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultBaselineOptions(scheme, prof)
	opt.ExpiryWindow = window
	opt.WorkPerCore = 60
	opt.WarmupPerCore = 120
	b, err := NewBaseline(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTokenBRunsToCompletion(t *testing.T) {
	res := runBaseline(t, SchemeTokenB, 0, "blackscholes")
	if res.Service.Count != 16*60 {
		t.Fatalf("measured %d, want %d", res.Service.Count, 16*60)
	}
	t.Logf("TokenB blackscholes: %d cycles, miss %.1f, ordering wait %.1f",
		res.Cycles, res.MissLat.Value(), res.OrderingLat.Value())
}

func TestINSORunsToCompletion(t *testing.T) {
	res := runBaseline(t, SchemeINSO, 20, "blackscholes")
	if res.Service.Count != 16*60 {
		t.Fatalf("measured %d, want %d", res.Service.Count, 16*60)
	}
	t.Logf("INSO-20 blackscholes: %d cycles, miss %.1f, ordering wait %.1f",
		res.Cycles, res.MissLat.Value(), res.OrderingLat.Value())
}

func TestINSOExpiryWindowTrend(t *testing.T) {
	// Figure 7: runtime grows with the expiration window.
	r20 := runBaseline(t, SchemeINSO, 20, "swaptions")
	r80 := runBaseline(t, SchemeINSO, 80, "swaptions")
	t.Logf("INSO runtime: W=20 %.0f, W=80 %.0f", r20.Runtime(), r80.Runtime())
	if r80.Runtime() <= r20.Runtime() {
		t.Errorf("INSO-80 runtime %.0f should exceed INSO-20 %.0f", r80.Runtime(), r20.Runtime())
	}
}

func TestTokenBTracksScorpio(t *testing.T) {
	tb := runBaseline(t, SchemeTokenB, 0, "vips")
	sOpt := smallOptions(t, "vips", 16)
	s, err := NewScorpio(sOpt)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := s.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sr.Runtime() / tb.Runtime()
	t.Logf("SCORPIO/TokenB runtime ratio: %.2f", ratio)
	if ratio < 0.8 || ratio > 1.6 {
		t.Errorf("TokenB should perform close to SCORPIO (paper Fig 7); ratio %.2f", ratio)
	}
}

// TestBaselineReportsSnoopCounters pins that a snoopy baseline's results
// carry the counters its coherence L2s keep, as SCORPIO's do: every ordered
// request is a broadcast every L2 snoops, so a run that missed at all saw
// snoops, and the region tracker can filter no more snoops than it saw.
func TestBaselineReportsSnoopCounters(t *testing.T) {
	res := runBaseline(t, SchemeTokenB, 0, "barnes")
	if res.SnoopsSeen == 0 {
		t.Fatalf("TokenB run with %d L2 misses reports 0 snoops seen", res.L2Misses)
	}
	if res.SnoopsFiltered > res.SnoopsSeen {
		t.Fatalf("SnoopsFiltered %d exceeds SnoopsSeen %d", res.SnoopsFiltered, res.SnoopsSeen)
	}
}
