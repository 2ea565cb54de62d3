package scorpio

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scorpio/internal/noc"
	"scorpio/internal/trace"
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
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"MaxOutstanding", Config{MaxOutstanding: -1}},
		{"IntensityScale", Config{IntensityScale: -1}},
		{"IntensityScale", Config{IntensityScale: math.NaN()}},
		{"DirCacheBytes", Config{DirCacheBytes: -1}},
		{"MainNetworks", Config{MainNetworks: -3}},
		{"Workers", Config{Workers: -4}},
	} {
		tc.cfg.Benchmark, tc.cfg.WorkPerCore, tc.cfg.CycleLimit = "fft", 10, 100_000
		if _, err := Run(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("bad %s: got %v, want an error naming it", tc.field, err)
		}
	}
	// A knob set for a protocol that ignores it names both.
	off := false
	for _, tc := range []struct {
		field string
		cfg   Config
		on    []Protocol // the protocols that ignore it
	}{
		{"NotifBits", Config{NotifBits: 2}, []Protocol{LPDD, HTD, TokenB, INSO}},
		{"MainNetworks", Config{MainNetworks: 2}, []Protocol{LPDD, HTD, TokenB, INSO}},
		{"PipelinedL2", Config{PipelinedL2: &off}, []Protocol{LPDD, HTD, TokenB, INSO}},
		{"ExpiryWindow", Config{ExpiryWindow: 40}, []Protocol{SCORPIO, LPDD, HTD, TokenB}},
		{"Workers", Config{Workers: 2}, []Protocol{TokenB, INSO}},
	} {
		for _, p := range tc.on {
			cfg := tc.cfg
			cfg.Protocol, cfg.Benchmark, cfg.Width, cfg.Height = p, "fft", 4, 4
			cfg.WorkPerCore, cfg.CycleLimit = 10, 100_000
			_, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), string(p)) {
				t.Errorf("%s on %s: got %v, want an error naming both", tc.field, p, err)
			}
		}
	}
}

// TestConfigDigestCoversEveryKnob sets one Config field at a time: every
// field that can change a run's results must change the digest benchdiff
// compares RunReports by, and the fields that never change results (the
// cycle limit, the worker count and the observability settings) must not.
func TestConfigDigestCoversEveryKnob(t *testing.T) {
	neutral := map[string]bool{
		"CycleLimit": true, "Workers": true,
		"TracePath": true, "MetricsInterval": true, "MetricsPath": true, "WatchdogCycles": true,
		"Audit": true, "PerfReportPath": true, "TelemetryAddr": true, "TelemetryInterval": true,
	}
	typ := reflect.TypeOf(Config{})
	for name := range neutral {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("neutral field %s is not a Config field", name)
		}
	}
	base := new(Config).configDigest()
	for i := 0; i < typ.NumField(); i++ {
		var c Config
		f, v := typ.Field(i), reflect.ValueOf(&c).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int:
			v.SetInt(3)
		case reflect.Uint64:
			v.SetUint(3)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem())) // set, unlike nil's chip default
		default:
			t.Fatalf("Config.%s: no test value for a %s", f.Name, v.Kind())
		}
		if changed := c.configDigest() != base; changed == neutral[f.Name] {
			t.Errorf("Config.%s: digest changed %v, want %v", f.Name, changed, !neutral[f.Name])
		}
	}
}

// TestMappersCarryDirCacheBytes: every machine gets the directory-cache
// budget the Config names, so Figure 7 compares the ordering schemes at the
// same budget.
func TestMappersCarryDirCacheBytes(t *testing.T) {
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{SCORPIO, LPDD, HTD, TokenB, INSO} {
		cfg := Config{Protocol: p, Benchmark: "fft", DirCacheBytes: 4096}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		var got int
		switch p {
		case SCORPIO:
			got = scorpioOptions(cfg, prof).Mem.TotalDirCacheBytes
		case LPDD, HTD:
			got = directoryOptions(cfg, prof).DirCacheBytes
		default:
			got = baselineOptions(cfg, prof).Mem.TotalDirCacheBytes
		}
		if got != cfg.DirCacheBytes {
			t.Errorf("%s machine gets a %d-byte directory cache, want %d", p, got, cfg.DirCacheBytes)
		}
	}
}

// TestMappersShareTheMesh: all five machines route on the same router, so
// the channel width, both VC counts and bypassing reach every protocol's
// mesh.
func TestMappersShareTheMesh(t *testing.T) {
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	off := false
	for _, p := range []Protocol{SCORPIO, LPDD, HTD, TokenB, INSO} {
		cfg := Config{Protocol: p, Benchmark: "fft", Width: 5, Height: 3,
			ChannelBytes: 8, GOReqVCs: 2, UORespVCs: 4, Bypass: &off}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		var got noc.Config
		switch p {
		case SCORPIO:
			got = scorpioOptions(cfg, prof).Core.Net
		case LPDD, HTD:
			got = directoryOptions(cfg, prof).Net
		default:
			got = baselineOptions(cfg, prof).Net
		}
		if got.Width != 5 || got.Height != 3 || got.ChannelBytes != 8 || got.GOReqVCs != 2 || got.UORespVCs != 4 || got.Bypass {
			t.Errorf("%s mesh %dx%d, %d-byte channels, %d GO-REQ and %d UO-RESP VCs, bypass %v; want 5x3, 8, 2, 4, false",
				p, got.Width, got.Height, got.ChannelBytes, got.GOReqVCs, got.UORespVCs, got.Bypass)
		}
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
	if !slices.Contains(Benchmarks(), "radix") {
		t.Fatal("radix missing from the catalog")
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
