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

// goldenConfigs lists the pinned runs: all five machines on three
// benchmarks, the mesh-ordered ones at the chip's 6×6 and the Figure 7
// baselines at their 4×4.
func goldenConfigs() []Config {
	var cfgs []Config
	for _, p := range []Protocol{SCORPIO, LPDD, HTD, TokenB, INSO} {
		side := 6
		if p == TokenB || p == INSO {
			side = 4
		}
		for _, b := range []string{"barnes", "fft", "lu"} {
			cfgs = append(cfgs, Config{Protocol: p, Benchmark: b, Width: side, Height: side,
				WorkPerCore: 60, WarmupPerCore: 40})
		}
	}
	return cfgs
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
	for _, cfg := range goldenConfigs() {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", cfg.Protocol, cfg.Benchmark, err)
		}
		got.Runs[fmt.Sprintf("%s/%s", cfg.Protocol, cfg.Benchmark)] = pin(t, r)
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
