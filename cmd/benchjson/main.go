// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a machine-readable JSON report on stdout. The Makefile's bench target pipes
// the allocation-regression benchmarks through it into BENCH_<n>.json so
// successive PRs can diff ns/op, B/op and allocs/op without scraping text.
//
//	go test -bench 'Fig6a' -benchmem -count=3 -run '^$' . | go run ./cmd/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"scorpio/internal/obs/perfmon"
)

// sample is one benchmark result line.
type sample struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// benchmark aggregates the samples of one benchmark name (one per -count).
type benchmark struct {
	Name         string   `json:"name"`
	Samples      []sample `json:"samples"`
	MinNsPerOp   float64  `json:"min_ns_per_op"`
	MeanNsPerOp  float64  `json:"mean_ns_per_op"`
	MeanBytesOp  float64  `json:"mean_bytes_per_op"`
	MeanAllocsOp float64  `json:"mean_allocs_per_op"`
}

type report struct {
	GoOS    string `json:"goos,omitempty"`
	GoArch  string `json:"goarch,omitempty"`
	Package string `json:"pkg,omitempty"`
	CPU     string `json:"cpu,omitempty"`
	// Host stamps the machine the benchmarks ran on (NumCPU, GOMAXPROCS, go
	// version, commit) so cross-host baseline trajectories stay
	// interpretable; benchdiff downgrades regressions to warnings when two
	// files' hosts differ.
	Host       *perfmon.HostInfo `json:"host,omitempty"`
	Benchmarks []*benchmark      `json:"benchmarks"`
}

func main() {
	var rep report
	host := perfmon.Host()
	rep.Host = &host
	byName := map[string]*benchmark{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			if rep.Package == "" {
				rep.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			}
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, s, ok := parseLine(line)
			if !ok {
				continue
			}
			b := byName[name]
			if b == nil {
				b = &benchmark{Name: name}
				byName[name] = b
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
			b.Samples = append(b.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	for _, b := range rep.Benchmarks {
		b.summarize()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseLine decodes one result line:
//
//	BenchmarkName-8   3   123456 ns/op   789 B/op   12 allocs/op
func parseLine(line string) (string, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", sample{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", sample{}, false
	}
	s := sample{Iterations: n}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			s.NsPerOp = v
		case "B/op":
			s.BytesPerOp = int64(v)
		case "allocs/op":
			s.AllocsPerOp = int64(v)
		}
	}
	return name, s, s.NsPerOp > 0
}

// summarize fills the aggregate fields from the samples.
func (b *benchmark) summarize() {
	if len(b.Samples) == 0 {
		return
	}
	b.MinNsPerOp = b.Samples[0].NsPerOp
	var ns, bytes, allocs float64
	for _, s := range b.Samples {
		if s.NsPerOp < b.MinNsPerOp {
			b.MinNsPerOp = s.NsPerOp
		}
		ns += s.NsPerOp
		bytes += float64(s.BytesPerOp)
		allocs += float64(s.AllocsPerOp)
	}
	n := float64(len(b.Samples))
	b.MeanNsPerOp = ns / n
	b.MeanBytesOp = bytes / n
	b.MeanAllocsOp = allocs / n
}
