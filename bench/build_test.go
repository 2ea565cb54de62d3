package main

import (
	"testing"

	"scorpio"
)

// TestPointMatchesFacade fails when the facade's option mapping
// (scorpio.Run) drifts from the benchmark's copy in build.
func TestPointMatchesFacade(t *testing.T) {
	cases := []point{
		{proto: protoScorpio, bench: "lu", mesh: 4, work: 80, warmup: 120},
		{proto: protoLPD, bench: "lu", mesh: 4, work: 80, warmup: 120},
		{proto: protoHT, bench: "lu", mesh: 4, work: 80, warmup: 120},
		{proto: protoScorpio, bench: "swaptions", mesh: 4, work: 80, warmup: 120, intensity: 0.1},
	}
	for _, p := range cases {
		got := runPoint(p, 3, nil)
		if got.err != nil {
			t.Fatalf("%s: %v", p.label(), got.err)
		}
		want, err := scorpio.Run(scorpio.Config{
			Protocol: scorpio.Protocol(p.proto), Benchmark: p.bench,
			Width: p.mesh, Height: p.mesh, WorkPerCore: p.work, WarmupPerCore: p.warmup,
			Seed: 3, IntensityScale: p.intensity,
		})
		if err != nil {
			t.Fatalf("%s: facade: %v", p.label(), err)
		}
		g, w := got.out, want
		if g.cycles != w.Cycles || g.lastDone != w.LastDone || g.completed != w.Completed ||
			g.flits != w.FlitsRouted || g.misses != w.L2Misses {
			t.Errorf("%s: benchmark (cycles %d last %d completed %d flits %d misses %d) != facade (%d %d %d %d %d)",
				p.label(), g.cycles, g.lastDone, g.completed, g.flits, g.misses,
				w.Cycles, w.LastDone, w.Completed, w.FlitsRouted, w.L2Misses)
		}
	}
}

// TestFig6aCheck: the accuracy check passes ratios near the paper's and
// fails ones that no longer reproduce Figure 6a.
func TestFig6aCheck(t *testing.T) {
	cases := []struct {
		row [3]float64 // LPD-D, HT-D, SCORPIO-D runtime vs LPD-D
		ok  bool
	}{
		{[3]float64{1, 0.878, 0.744}, true}, // seed 1's averages
		{[3]float64{1, 0.871, 0.759}, true}, // the paper's
		{[3]float64{1, 0.9, 0.95}, false},   // SCORPIO-D barely ahead of LPD-D
		{[3]float64{1, 0.79, 0.76}, false},  // HT-D nearly as fast: 0.962
		{[3]float64{1, 0.871, 0.67}, false}, // SCORPIO-D too far ahead
		{[3]float64{1, 0, 0.759}, false},    // infinite SCORPIO-D/HT-D
		{[3]float64{1, 0, 0}, false},        // NaN
	}
	for _, c := range cases {
		f := figure{rows: [][3]float64{c.row}}
		if err := f.check(); (err == nil) != c.ok {
			t.Errorf("%v: check = %v, want ok=%v", c.row, err, c.ok)
		}
	}
}

// TestFig6aMatchesFacade checks the sweep's ratios against scorpio.Figure6a
// on a two-benchmark QuickScale subset.
func TestFig6aMatchesFacade(t *testing.T) {
	scale := scorpio.QuickScale
	scale.Benchmarks = []string{"barnes", "canneal"}
	want, err := scorpio.Figure6a(scale, 36)
	if err != nil {
		t.Fatal(err)
	}
	res := runPoints(fig6aPoints(scale.Benchmarks, scale.Work, scale.Warmup), scale.Seed, 2)
	for _, r := range res {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	fig := fig6aFigure(res)
	rows := append(fig.rows, fig.avg())
	if len(rows) != len(want.Rows) {
		t.Fatalf("%d rows, facade has %d", len(rows), len(want.Rows))
	}
	for i, r := range want.Rows {
		for j, v := range r.Values {
			if rows[i][j] != v {
				t.Errorf("row %s series %s: %v, facade %v", r.Label, want.Series[j], rows[i][j], v)
			}
		}
	}
	if got, w := fig.scorpioOverHT(), want.MeanRatio("SCORPIO-D", "HT-D"); got != w {
		t.Errorf("SCORPIO-D/HT-D %v, facade %v", got, w)
	}
}
