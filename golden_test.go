package scorpio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"scorpio/internal/stats"
	"scorpio/internal/system"
)

// updateGolden rewrites testdata/golden.json from the current code:
//
//	go test -run TestGolden . -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenRun pins one run: every scalar Results counter by name, so a diff
// names the field that moved, plus one digest over the distributions (the
// service histogram, the latency breakdowns and the mean accumulators).
type goldenRun struct {
	Counters map[string]uint64 `json:"counters"`
	Digest   string            `json:"digest"`
}

// goldenFile is testdata/golden.json: the per-machine result pins and the
// FNV digests of one sampled run's metrics CSV and JSON per machine family.
type goldenFile struct {
	Runs    map[string]goldenRun `json:"runs"`
	Metrics map[string]string    `json:"metrics"`
}

// goldenCase is one pinned run: a facade Config, plus the L2 capacity of a
// small-L2 run (0 keeps the machine's default L2) or the cycle count of a
// SCORPIO window stepped short of completion (0 runs to completion). A
// measured window fails unless every core completes measured accesses in it;
// a serviced window fails unless some core does, and its key names the
// warm-up that lets it.
type goldenCase struct {
	cfg      Config
	l2Bytes  int
	window   uint64
	measured bool
	serviced bool
}

// goldenCases lists the pinned runs: all five machines on three benchmarks,
// the mesh-ordered ones at the chip's 6×6 and the Figure 7 baselines at
// their 4×4, plus a 4×4 SCORPIO on two main networks, the one pinned path
// through a NIC's extra mesh ports and the send striping across meshes. The 4×4 fft runs
// with a 1 KB L2 are the pinned dirty evictions: no default-size run evicts
// a dirty line, so they alone carry writebacks through every machine. One
// 600-cycle window of a 16×16 SCORPIO fft on two kernel workers is the
// bench's mesh256-fft point at seed 1 and the only pinned mesh past 6×6 (a
// run to completion there takes tens of seconds). No core gets past its 5
// warm-up accesses in the window, so its service histogram is empty and its
// counters carry the pin; the same window at warm-up 1 pins the 16×16
// service path, where some cores complete measured accesses. Two measured 6×6 windows pin the machines of the
// bench's chip36-fft and chip36-sparse points (seed 1, one worker, swaptions
// at a tenth of its issue rate) with warm-ups short enough that every core
// completes measured accesses; cores never reach their work quota inside
// either window, as in the bench, where work is unbounded.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, p := range []Protocol{SCORPIO, LPDD, HTD, TokenB, INSO} {
		side := 6
		if p == TokenB || p == INSO {
			side = 4
		}
		for _, b := range []string{"barnes", "fft", "lu"} {
			cases = append(cases, goldenCase{cfg: Config{Protocol: p, Benchmark: b, Width: side, Height: side,
				WorkPerCore: 60, WarmupPerCore: 40}})
		}
	}
	cases = append(cases, goldenCase{cfg: Config{Protocol: SCORPIO, Benchmark: "barnes", Width: 4, Height: 4,
		WorkPerCore: 60, WarmupPerCore: 40, MainNetworks: 2}})
	for _, p := range []Protocol{SCORPIO, LPDD, HTD, TokenB, INSO} {
		cases = append(cases, goldenCase{cfg: Config{Protocol: p, Benchmark: "fft", Width: 4, Height: 4,
			WorkPerCore: 60, WarmupPerCore: 40}, l2Bytes: 1024})
	}
	cases = append(cases, goldenCase{cfg: Config{Protocol: SCORPIO, Benchmark: "fft", Width: 16, Height: 16,
		WorkPerCore: 60, WarmupPerCore: 5, Workers: 2}, window: 600})
	cases = append(cases, goldenCase{cfg: Config{Protocol: SCORPIO, Benchmark: "fft", Width: 16, Height: 16,
		WorkPerCore: 60, WarmupPerCore: 1, Workers: 2}, window: 600, serviced: true})
	cases = append(cases,
		goldenCase{cfg: Config{Protocol: SCORPIO, Benchmark: "fft", Width: 6, Height: 6,
			WorkPerCore: 400, WarmupPerCore: 10}, window: 3000, measured: true},
		goldenCase{cfg: Config{Protocol: SCORPIO, Benchmark: "swaptions", Width: 6, Height: 6,
			WorkPerCore: 400, WarmupPerCore: 10, IntensityScale: 0.1}, window: 20000, measured: true})
	return cases
}

// goldenKey names a pinned run: protocol and benchmark, plus the mesh size
// and the network count, L2 capacity, or issue intensity and window of a run
// that sets one, and the warm-up of a serviced window.
func goldenKey(c goldenCase) string {
	key := fmt.Sprintf("%s/%s", c.cfg.Protocol, c.cfg.Benchmark)
	if c.cfg.MainNetworks > 1 {
		key += fmt.Sprintf("/%dx%d/nets=%d", c.cfg.Width, c.cfg.Height, c.cfg.MainNetworks)
	}
	if c.l2Bytes > 0 {
		key += fmt.Sprintf("/%dx%d/l2=%dKB", c.cfg.Width, c.cfg.Height, c.l2Bytes/1024)
	}
	if c.window > 0 {
		key += fmt.Sprintf("/%dx%d", c.cfg.Width, c.cfg.Height)
		if c.cfg.IntensityScale > 0 {
			key += fmt.Sprintf("/intensity=%g", c.cfg.IntensityScale)
		}
		if c.serviced {
			key += fmt.Sprintf("/warmup=%d", c.cfg.WarmupPerCore)
		}
		key += fmt.Sprintf("/window=%d", c.window)
	}
	return key
}

// run executes the case: through Run for a default L2, else through the
// facade's option mappers with the L2 capacity overridden (Config has no L2
// size knob).
func (c goldenCase) run() (Result, error) {
	if c.l2Bytes == 0 {
		return Run(c.cfg)
	}
	return runL2Bytes(c.cfg, c.l2Bytes)
}

// runL2Bytes runs cfg with every L2 shrunk to l2Bytes, built through the
// same option mappers Run uses.
func runL2Bytes(cfg Config, l2Bytes int) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	prof, err := profile(cfg)
	if err != nil {
		return Result{}, err
	}
	switch cfg.Protocol {
	case SCORPIO:
		opt := scorpioOptions(cfg, prof)
		opt.L2.CapacityBytes = l2Bytes
		s, err := system.NewScorpio(opt)
		if err != nil {
			return Result{}, err
		}
		return s.Run(cfg.CycleLimit)
	case LPDD, HTD:
		opt := directoryOptions(cfg, prof)
		opt.L2.CapacityBytes = l2Bytes
		d, err := system.NewDirectory(opt)
		if err != nil {
			return Result{}, err
		}
		return d.Run(cfg.CycleLimit)
	default:
		opt := baselineOptions(cfg, prof)
		opt.L2.CapacityBytes = l2Bytes
		b, err := system.NewBaseline(opt)
		if err != nil {
			return Result{}, err
		}
		return b.Run(cfg.CycleLimit)
	}
}

// pinWindow builds c's SCORPIO machine through the facade's mapper, steps
// it c.window cycles, checks the global order, and pins what the bench
// digest of such a window covers: cycles, completed accesses, flits routed,
// L2 hits and misses, and a digest of the service histogram.
func pinWindow(t *testing.T, c goldenCase) goldenRun {
	cfg := c.cfg
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	prof, err := profile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := system.NewScorpio(scorpioOptions(cfg, prof))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kernel.StopWorkers()
	s.Kernel.Run(c.window)
	if err := s.Net.VerifyGlobalOrder(); err != nil {
		t.Fatalf("%s: %v", goldenKey(c), err)
	}
	g := goldenRun{Counters: map[string]uint64{"Cycles": s.Kernel.Cycle(), "FlitsRouted": s.Net.NetStats().FlitsRouted}}
	hist := stats.NewHistogram(4, 512)
	for i, in := range s.Injectors {
		if c.measured && in.ServiceHist.Count() == 0 {
			t.Fatalf("%s: core %d completed no measured access (%d in all) in the window", goldenKey(c), i, in.Completed)
		}
		g.Counters["Completed"] += in.Completed
		hist.Merge(in.ServiceHist)
	}
	if c.serviced && hist.Count() == 0 {
		t.Fatalf("%s: no core completed a measured access in the window", goldenKey(c))
	}
	for _, l2 := range s.L2s {
		g.Counters["L2Hits"] += l2.Stats.Hits
		g.Counters["L2Misses"] += l2.Stats.Misses
	}
	h := fnv.New64a()
	digestValue(t, h, reflect.ValueOf(hist))
	g.Digest = fmt.Sprintf("%016x", h.Sum64())
	return g
}

// pin splits a Results value into its named counters and a digest of
// everything else numeric it carries.
func pin(t *testing.T, r Result) goldenRun {
	g := goldenRun{Counters: map[string]uint64{}}
	h := fnv.New64a()
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.Kind() == reflect.Uint64:
			g.Counters[name] = f.Uint()
		case f.Kind() == reflect.String, name == "Obs":
			// Identity and observability artifacts, not results.
		default:
			h.Write([]byte(name))
			digestValue(t, h, f)
		}
	}
	g.Digest = fmt.Sprintf("%016x", h.Sum64())
	return g
}

// digestValue folds every number reachable from v, unexported fields
// included, into h. An unhandled kind fails the test rather than being
// skipped, so a new Results field cannot silently escape the pin.
func digestValue(t *testing.T, h hash.Hash64, v reflect.Value) {
	var b [8]byte
	switch v.Kind() {
	case reflect.Uint64:
		binary.LittleEndian.PutUint64(b[:], v.Uint())
		h.Write(b[:])
	case reflect.Float64:
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
		h.Write(b[:])
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(t, h, v.Field(i))
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			digestValue(t, h, v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			digestValue(t, h, v.Elem())
		}
	default:
		t.Fatalf("golden: no digest rule for %s", v.Type())
	}
}

// metricsDigests runs one sampled 4×4 barnes run per machine family and
// digests its metrics CSV and JSON exports.
func metricsDigests(t *testing.T) map[string]string {
	out := map[string]string{}
	for _, p := range []Protocol{SCORPIO, LPDD, INSO} {
		r, err := Run(Config{Protocol: p, Benchmark: "barnes", Width: 4, Height: 4,
			WorkPerCore: 60, WarmupPerCore: 40, MetricsInterval: 200})
		if err != nil {
			t.Fatalf("%s metrics run: %v", p, err)
		}
		for _, format := range []string{"csv", "json"} {
			var buf bytes.Buffer
			write := r.Obs.Metrics.WriteCSV
			if format == "json" {
				write = r.Obs.Metrics.WriteJSON
			}
			if err := write(&buf); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			out[fmt.Sprintf("%s/barnes.%s", p, format)] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	return out
}

// TestGolden pins every machine's results across commits. A refactor must
// leave testdata/golden.json byte-identical; a change that moves a number on
// purpose regenerates it with -update and says why in CHANGES.md.
func TestGolden(t *testing.T) {
	got := goldenFile{Runs: map[string]goldenRun{}, Metrics: metricsDigests(t)}
	for _, c := range goldenCases() {
		if c.window > 0 {
			got.Runs[goldenKey(c)] = pinWindow(t, c)
			continue
		}
		r, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", goldenKey(c), err)
		}
		got.Runs[goldenKey(c)] = pin(t, r)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with: go test -run TestGolden . -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for _, diff := range goldenDiff(want, got) {
		t.Error(diff)
	}
}

// goldenDiff lists every pinned value that differs, by run and field name.
func goldenDiff(want, got goldenFile) []string {
	var diffs []string
	for _, key := range unionKeys(want.Runs, got.Runs) {
		w, okW := want.Runs[key]
		g, okG := got.Runs[key]
		if !okW || !okG {
			diffs = append(diffs, fmt.Sprintf("run %s: pinned %v, ran %v", key, okW, okG))
			continue
		}
		for _, name := range unionKeys(w.Counters, g.Counters) {
			if w.Counters[name] != g.Counters[name] {
				diffs = append(diffs, fmt.Sprintf("%s: %s = %d, pinned %d", key, name, g.Counters[name], w.Counters[name]))
			}
		}
		if w.Digest != g.Digest {
			diffs = append(diffs, fmt.Sprintf("%s: distribution digest %s, pinned %s", key, g.Digest, w.Digest))
		}
	}
	for _, key := range unionKeys(want.Metrics, got.Metrics) {
		if want.Metrics[key] != got.Metrics[key] {
			diffs = append(diffs, fmt.Sprintf("metrics %s: digest %q, pinned %q", key, got.Metrics[key], want.Metrics[key]))
		}
	}
	return diffs
}

// unionKeys returns the sorted keys present in either map.
func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
