package scorpio

import (
	"strings"
	"testing"
)

func TestRunDefaultsToScorpio(t *testing.T) {
	res, err := Run(Config{Benchmark: "swaptions", Width: 4, Height: 4, WorkPerCore: 60, WarmupPerCore: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "SCORPIO" {
		t.Fatalf("protocol = %s", res.Protocol)
	}
	if res.Service.Count != 16*60 {
		t.Fatalf("measured %d accesses, want %d", res.Service.Count, 16*60)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing benchmark accepted")
	}
	if _, err := Run(Config{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Run(Config{Benchmark: "lu", Protocol: Protocol("weird")}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	// The cycle limit keeps a machine that accepted the value and then issued
	// nothing from running long; its "did not finish" error must not pass.
	if _, err := Run(Config{Benchmark: "fft", MaxOutstanding: -1, CycleLimit: 100_000}); err == nil || !strings.Contains(err.Error(), "MaxOutstanding") {
		t.Fatalf("negative MaxOutstanding: got %v, want an error naming MaxOutstanding", err)
	}
}

func TestEveryProtocolRuns(t *testing.T) {
	for _, p := range []Protocol{SCORPIO, LPDD, HTD, TokenB, INSO} {
		res, err := Run(Config{Protocol: p, Benchmark: "swaptions", Width: 4, Height: 4, WorkPerCore: 40, WarmupPerCore: 60})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Service.Count != 16*40 {
			t.Fatalf("%s measured %d", p, res.Service.Count)
		}
	}
}

func TestBenchmarksCatalog(t *testing.T) {
	if len(Benchmarks()) != 14 {
		t.Fatalf("benchmarks = %d, want 14", len(Benchmarks()))
	}
	if len(BenchmarksOf("splash2")) != 8 || len(BenchmarksOf("parsec")) != 6 {
		t.Fatal("suite split wrong")
	}
	if _, err := ProfileByName("radix"); err != nil {
		t.Fatal(err)
	}
}

func TestHeadlineDirection(t *testing.T) {
	// The core claim at a reduced scale: SCORPIO-D beats both directory
	// baselines on the same workload (Figure 6a's direction).
	s := QuickScale
	s.Work, s.Warmup = 150, 250
	s.Benchmarks = []string{"barnes", "lu"}
	fig, err := Figure6a(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r := fig.MeanRatio("SCORPIO-D", "LPD-D"); r >= 1 {
		t.Errorf("SCORPIO-D/LPD-D runtime ratio %.3f, want < 1", r)
	}
	if r := fig.MeanRatio("SCORPIO-D", "HT-D"); r >= 1 {
		t.Errorf("SCORPIO-D/HT-D runtime ratio %.3f, want < 1", r)
	}
	h := Headline(fig)
	if !strings.Contains(h, "runtime reduction") {
		t.Fatalf("headline malformed: %q", h)
	}
}

func TestTablesRender(t *testing.T) {
	t1 := Table1()
	if !strings.Contains(t1, "6x6 mesh") || !strings.Contains(t1, "MOSI") {
		t.Fatalf("Table 1 incomplete:\n%s", t1)
	}
	t2 := Table2()
	if !strings.Contains(t2, "SCORPIO") || !strings.Contains(t2, "TILE64") {
		t.Fatalf("Table 2 incomplete:\n%s", t2)
	}
}

func TestFigure9Shares(t *testing.T) {
	p, a := Figure9()
	if len(p.Rows) == 0 || len(a.Rows) == 0 {
		t.Fatal("empty figure 9")
	}
	if p.Rows[0].Label != "Core" {
		t.Fatalf("largest power consumer = %s, want Core", p.Rows[0].Label)
	}
	if a.Rows[0].Label != "L2 Cache Array" {
		t.Fatalf("largest area consumer = %s, want L2 Cache Array", a.Rows[0].Label)
	}
}

func TestFigureString(t *testing.T) {
	f := Figure{ID: "x", Title: "T", Series: []string{"a"}, Rows: []FigureRow{{Label: "r", Values: []float64{1.5}}}}
	out := f.String()
	if !strings.Contains(out, "1.500") || !strings.Contains(out, "T") {
		t.Fatalf("render wrong: %q", out)
	}
	if f.Mean("a") != 1.5 || f.Mean("missing") != 0 {
		t.Fatal("Mean wrong")
	}
	if ch := f.Chart(); !strings.Contains(ch, "|") || !strings.Contains(ch, "r") {
		t.Fatalf("chart render wrong: %q", ch)
	}
}

func TestMeshFor(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 36: {6, 6}, 64: {8, 8}, 100: {10, 10}, 25: {5, 5}}
	for n, wh := range cases {
		w, h := meshFor(n)
		if w != wh[0] || h != wh[1] {
			t.Fatalf("meshFor(%d) = %dx%d", n, w, h)
		}
	}
}
