package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scorpio/internal/obs/perfmon"
)

func testSeries() []Series {
	return []Series{
		{Name: "reqs", Kind: Counter, Help: "requests seen"},
		{Name: "depth", Kind: Gauge, Help: `queue depth with "quotes" and a \ backslash`},
		{Name: "errs", Kind: Counter, Help: "errors\nwith a newline"},
	}
}

// TestPublisherReadConsistency hammers the seqlock from a concurrent reader
// while the writer publishes rows whose fields are all derived from one
// value; any torn read (mixing two publishes) surfaces as a mismatched row.
// Publish i carries cycle i and is tick i, so the tick must match too.
func TestPublisherReadConsistency(t *testing.T) {
	p := NewPublisher(testSeries(), 1, 2, 2)
	stop := make(chan struct{})
	var torn atomic.Int64
	var reads atomic.Int64
	go func() {
		var s Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !p.Read(&s) {
				continue
			}
			reads.Add(1)
			if s.Tick != s.Cycle {
				torn.Add(1)
			}
			want := s.Vals[0]
			for _, v := range s.Vals {
				if v != want {
					torn.Add(1)
				}
			}
			for _, v := range s.Heat {
				if v != want {
					torn.Add(1)
				}
			}
		}
	}()
	vals := make([]float64, 3)
	heat := make([]float64, 4)
	for i := 1; i <= 50_000; i++ {
		v := float64(i)
		for j := range vals {
			vals[j] = v
		}
		for j := range heat {
			heat[j] = v
		}
		p.Publish(uint64(i), vals, heat)
	}
	close(stop)
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn reads across %d snapshots", n, reads.Load())
	}
	var s Snapshot
	if !p.Read(&s) {
		t.Fatal("final read failed")
	}
	if s.Cycle != 50_000 || s.Vals[0] != 50_000 || s.Tick != 50_000 {
		t.Fatalf("final snapshot: cycle %d tick %d vals[0] %v", s.Cycle, s.Tick, s.Vals[0])
	}
}

// TestPublishAllocatesNothing pins the driver-side publish cost: pure atomic
// stores.
func TestPublishAllocatesNothing(t *testing.T) {
	p := NewPublisher(testSeries(), 1, 2, 2)
	vals := []float64{1, 2, 3}
	heat := []float64{1, 2, 3, 4}
	cycle := uint64(0)
	if avg := testing.AllocsPerRun(200, func() {
		cycle++
		p.Publish(cycle, vals, heat)
	}); avg != 0 {
		t.Fatalf("Publish allocates %.1f objects per call; the hot path must be allocation-free", avg)
	}
}

func TestDue(t *testing.T) {
	var nilPub *Publisher
	if nilPub.Due(0) {
		t.Fatal("nil publisher claims to be due")
	}
	p := NewPublisher(testSeries(), 100, 0, 0)
	for _, tc := range []struct {
		cycle uint64
		want  bool
	}{{0, true}, {1, false}, {99, false}, {100, true}, {250, false}, {1000, true}} {
		if got := p.Due(tc.cycle); got != tc.want {
			t.Errorf("Due(%d) = %v, want %v", tc.cycle, got, tc.want)
		}
	}
}

// buildTestServer assembles a server with every optional hook populated.
func buildTestServer(label string) (*Publisher, *Server) {
	p := NewPublisher(testSeries(), 1, 2, 2)
	mon := perfmon.New()
	mon.EnsureWorkers(2)
	mon.Worker(0).EvalNs.Store(1000)
	mon.Worker(0).CommitNs.Store(500)
	mon.Worker(1).EvalNs.Store(900)
	mon.Worker(1).Sampled.Store(42)
	srv := NewServer(p, Options{
		Label: label,
		Mon:   mon,
		WakeEdges: func() (w [perfmon.NumWakeEdges]uint64) {
			for i := range w {
				w[i] = uint64(10 * (i + 1))
			}
			return w
		},
		Balance: func() (uint64, uint64) { return 3, 17 },
		Workers: func() int { return 2 },
	})
	return p, srv
}

// omFamily is one parsed metric family of the exposition.
type omFamily struct {
	help, typ string
	samples   int
}

// parseExposition is a self-contained OpenMetrics text parser strict enough
// to catch format regressions: HELP/TYPE ordering, counter _total suffixes,
// label-value escaping, sample/family association, and the # EOF terminator.
func parseExposition(t *testing.T, body string) (map[string]*omFamily, map[string]map[string]float64) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF (last line %q)", lines[len(lines)-1])
	}
	fams := map[string]*omFamily{}
	samples := map[string]map[string]float64{} // sample name -> rendered labels -> value
	var cur string
	for _, line := range lines[:len(lines)-1] {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed HELP line %q", line)
			}
			if _, dup := fams[name]; dup {
				t.Fatalf("duplicate HELP for %s", name)
			}
			fams[name] = &omFamily{help: help}
			cur = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := line[len("# TYPE "):]
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge") {
				t.Fatalf("malformed TYPE line %q", line)
			}
			f := fams[name]
			if f == nil {
				t.Fatalf("TYPE before HELP for %s", name)
			}
			if f.typ != "" {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			if name != cur {
				t.Fatalf("TYPE %s outside its family block (current %s)", name, cur)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		// Sample line: name[{labels}] value
		var name, labels, rest string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("unbalanced braces in %q", line)
			}
			labels = line[i+1 : j]
			rest = line[j+1:]
		} else {
			var ok bool
			name, rest, ok = strings.Cut(line, " ")
			if !ok {
				t.Fatalf("sample line lacks a value: %q", line)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) != 1 {
			t.Fatalf("sample line needs exactly one value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		fam := name
		f := fams[fam]
		if f == nil && strings.HasSuffix(name, "_total") {
			fam = strings.TrimSuffix(name, "_total")
			f = fams[fam]
		}
		if f == nil {
			t.Fatalf("sample %q has no HELP/TYPE family", name)
		}
		if f.typ == "" {
			t.Fatalf("sample %q arrived before its TYPE line", name)
		}
		if fam != cur {
			t.Fatalf("sample %q outside its family block (current %s)", name, cur)
		}
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Fatalf("counter sample %q lacks the _total suffix", name)
		}
		if f.typ == "gauge" && strings.HasSuffix(name, "_total") {
			t.Fatalf("gauge sample %q carries a counter suffix", name)
		}
		if f.typ == "counter" && v < 0 {
			t.Fatalf("counter sample %q is negative: %v", name, v)
		}
		validateLabels(t, labels)
		f.samples++
		if samples[name] == nil {
			samples[name] = map[string]float64{}
		}
		if _, dup := samples[name][labels]; dup {
			t.Fatalf("duplicate sample %s{%s}", name, labels)
		}
		samples[name][labels] = v
	}
	for name, f := range fams {
		if f.typ == "" {
			t.Fatalf("family %s has HELP but no TYPE", name)
		}
		if f.samples == 0 {
			t.Fatalf("family %s has no samples", name)
		}
	}
	return fams, samples
}

// validateLabels checks the label list parses under the exposition's escape
// rules: values are double-quoted with \\, \" and \n escapes only.
func validateLabels(t *testing.T, labels string) map[string]string {
	t.Helper()
	out := map[string]string{}
	i := 0
	for i < len(labels) {
		eq := strings.IndexByte(labels[i:], '=')
		if eq < 0 {
			t.Fatalf("label list %q: missing =", labels)
		}
		key := labels[i : i+eq]
		i += eq + 1
		if i >= len(labels) || labels[i] != '"' {
			t.Fatalf("label list %q: value of %s not quoted", labels, key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(labels) {
				t.Fatalf("label list %q: unterminated value for %s", labels, key)
			}
			c := labels[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(labels) {
					t.Fatalf("label list %q: trailing backslash", labels)
				}
				switch labels[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("label list %q: invalid escape \\%c", labels, labels[i+1])
				}
				i += 2
				continue
			}
			if c == '\n' {
				t.Fatalf("label list %q: raw newline in value", labels)
			}
			val.WriteByte(c)
			i++
		}
		out[key] = val.String()
		if i < len(labels) {
			if labels[i] != ',' {
				t.Fatalf("label list %q: expected , after value, got %q", labels, labels[i])
			}
			i++
		}
	}
	return out
}

// TestOpenMetricsExposition scrapes /metrics twice and validates every family
// against the exposition format, the escaping of a hostile label value, and
// counter monotonicity between scrapes.
func TestOpenMetricsExposition(t *testing.T) {
	label := "we\"ird\\lab\nel"
	p, srv := buildTestServer(label)
	scrape := func() (map[string]*omFamily, map[string]map[string]float64) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics: %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
			t.Fatalf("content type %q", ct)
		}
		return parseExposition(t, rec.Body.String())
	}

	p.Publish(100, []float64{5, 2, 1}, []float64{0.1, 0.2, 0.3, 0.4})
	fams1, samples1 := scrape()
	p.Publish(200, []float64{9, 1, 4}, nil)
	_, samples2 := scrape()

	// Schema families present with the right kinds and help text intact.
	for fam, typ := range map[string]string{
		"scorpio_reqs":               "counter",
		"scorpio_depth":              "gauge",
		"scorpio_errs":               "counter",
		"scorpio_cycle":              "gauge",
		"scorpio_worker_eval_ns":     "counter",
		"scorpio_wakes":              "counter",
		"scorpio_shard_rebalances":   "counter",
		"scorpio_router_utilization": "gauge",
		"scorpio_shard_migrations":   "counter",
		"scorpio_workers":            "gauge",
		"scorpio_sample_ticks":       "counter",
		"scorpio_run":                "gauge",
	} {
		f := fams1[fam]
		if f == nil {
			t.Fatalf("family %s missing from exposition", fam)
		}
		if f.typ != typ {
			t.Fatalf("family %s: type %s, want %s", fam, f.typ, typ)
		}
	}
	// The hostile label value round-trips through the escape rules.
	runLabels := ""
	for l := range samples1["scorpio_run"] {
		runLabels = l
	}
	if got := validateLabels(t, runLabels)["label"]; got != label {
		t.Fatalf("label round-trip: got %q want %q", got, label)
	}
	// Heat grid: one sample per router with x/y labels.
	if n := len(samples1["scorpio_router_utilization"]); n != 4 {
		t.Fatalf("heat samples = %d, want 4", n)
	}
	if v := samples1["scorpio_router_utilization"][`x="1",y="1"`]; v != 0.4 {
		t.Fatalf("heat (1,1) = %v, want 0.4", v)
	}
	// Wake edges carry one sample per edge name.
	if n := len(samples1["scorpio_wakes_total"]); n != perfmon.NumWakeEdges {
		t.Fatalf("wake samples = %d, want %d", n, perfmon.NumWakeEdges)
	}
	// Per-worker counters labeled by worker index.
	if v := samples1["scorpio_worker_eval_ns_total"][`worker="0"`]; v != 1000 {
		t.Fatalf(`worker 0 eval ns = %v, want 1000`, v)
	}
	// Counters are monotonic between scrapes.
	for name, byLabel := range samples1 {
		fam := strings.TrimSuffix(name, "_total")
		if fams1[fam] == nil || fams1[fam].typ != "counter" {
			continue
		}
		for l, v1 := range byLabel {
			if v2, ok := samples2[name][l]; ok && v2 < v1 {
				t.Fatalf("counter %s{%s} went backwards: %v -> %v", name, l, v1, v2)
			}
		}
	}
	if samples2["scorpio_reqs_total"][""] != 9 || samples2["scorpio_cycle"][""] != 200 {
		t.Fatalf("second scrape did not reflect the second publish: %v", samples2["scorpio_reqs_total"])
	}
}

// TestSnapshotAndHealthz covers /snapshot with no driver serving the deep
// door (503, pointing at /metrics), the fulfilled path, and /healthz.
func TestSnapshotAndHealthz(t *testing.T) {
	p, srv := buildTestServer("snap")
	p.Publish(300, []float64{1, 2, 3}, []float64{1, 2, 3, 4})

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz: %d %q", rec.Code, rec.Body.String())
	}

	// No deep fn installed and nobody calling ServeDeep: the request times
	// out and the handler answers 503 rather than a copy of the page.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "/metrics") {
		t.Fatalf("/snapshot with no driver: %d %q, want 503 naming /metrics", rec.Code, rec.Body.String())
	}

	// With a deep fn and a driver loop, /snapshot returns the deep payload.
	p.SetDeep(func(cycle uint64) *DeepSnapshot {
		return &DeepSnapshot{Cycle: cycle, Label: "deep", Network: "net-state", Activity: "act-state"}
	})
	stop := make(chan struct{})
	go func() {
		cycle := uint64(300)
		for {
			select {
			case <-stop:
				return
			default:
				cycle++
				p.ServeDeep(cycle)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer close(stop)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/snapshot: %d", rec.Code)
	}
	var d DeepSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("bad /snapshot JSON: %v", err)
	}
	if d.Label != "deep" || d.Network != "net-state" || d.Activity != "act-state" {
		t.Fatalf("snapshot = %+v", d)
	}
}

// TestServeReleasesPort pins the lifecycle contract the telemetrysmoke script
// relies on: after Close the port accepts no connections and can be rebound.
func TestServeReleasesPort(t *testing.T) {
	p, srv := buildTestServer("lifecycle")
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no bound address after Serve")
	}
	p.Publish(1, []float64{1, 2, 3}, nil)
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The port is free again: rebinding it succeeds (retry briefly — the OS
	// may take a moment to finish the teardown).
	var rebindErr error
	for i := 0; i < 50; i++ {
		_, srv2 := buildTestServer("rebind")
		if rebindErr = srv2.Serve(addr); rebindErr == nil {
			srv2.Close()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rebindErr != nil {
		t.Fatalf("port %s not released after Close: %v", addr, rebindErr)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
