package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestMedianQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(v, n=4).
	cases := []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 3.5, 1.75, 5.25},
		{[]float64{10, 10, 10, 10}, 10, 10, 10},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if got := median(c.v); got != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.v, got, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); got != 1 {
		t.Errorf("spread = %v, want (5.25-1.75)/3.5 = 1", got)
	}
}

func TestTallyCountsFailedPoints(t *testing.T) {
	cases := []struct {
		points         []error
		checks         []error
		attempted, bad int
		correct        bool
	}{
		{nil, nil, 0, 0, false},
		{[]error{nil, nil, nil}, nil, 3, 0, true},
		{[]error{nil, errors.New("digest"), nil}, nil, 3, 1, false},
		{[]error{nil}, []error{nil, errors.New("fig6a")}, 1, 0, false},
	}
	for i, c := range cases {
		var tl tally
		for _, err := range c.points {
			tl.point("p", err)
		}
		for _, err := range c.checks {
			tl.check(err)
		}
		if tl.attempted != c.attempted || tl.failed != c.bad || tl.correct() != c.correct {
			t.Errorf("case %d: attempted %d failed %d correct %v, want %d %d %v",
				i, tl.attempted, tl.failed, tl.correct(), c.attempted, c.bad, c.correct)
		}
	}
}

func TestMetricSpecRules(t *testing.T) {
	cases := []struct {
		spec metricSpec
		ok   bool
	}{
		{metricSpec{"wall_s", "s", "lower", bound(0.1)}, true},
		{metricSpec{"noc.ns_per-cycle", "ns", "lower", bound(0.1)}, true},
		{metricSpec{"9lives", "1/s", "higher", bound(0)}, true},
		{metricSpec{"_x", "s", "lower", bound(0.1)}, false},
		{metricSpec{"a b", "s", "lower", bound(0.1)}, false},
		{metricSpec{"a/b", "s", "lower", bound(0.1)}, false},
		{metricSpec{strings.Repeat("a", 65), "s", "lower", bound(0.1)}, false},
		{metricSpec{"x", "µs", "lower", bound(0.1)}, false},
		{metricSpec{"x", "s", "faster", bound(0.1)}, false},
		{metricSpec{"x", "s", "lower", bound(0.26)}, false},
		{metricSpec{"x", "s", "lower", bound(-0.1)}, false},
		{metricSpec{"x", "s", "lower", nil}, false},
	}
	for _, c := range cases {
		if err := c.spec.validate(true); (err == nil) != c.ok {
			t.Errorf("%+v: validate = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
	if err := (metricSpec{"x", "s", "lower", bound(0.1)}).validate(false); err == nil {
		t.Error("a per-layer metric with a bound passed validation")
	}
	if err := (metricSpec{"x.y", "frac", "higher", nil}).validate(false); err != nil {
		t.Error(err)
	}
	if err := validateSpecs(); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyAgainstBound(t *testing.T) {
	cases := []struct {
		b      *float64
		values []float64
		steady bool
	}{
		{bound(0.10), []float64{100, 101, 99, 100, 102}, true},
		{bound(0.10), []float64{100, 110, 90, 100, 120}, false},
		{bound(0), []float64{5, 5, 5}, true},
		{bound(0), []float64{5, 5, 6}, false},
		{nil, []float64{1, 100}, true},
	}
	for _, c := range cases {
		s := sample{spec: metricSpec{"m", "s", "lower", c.b}, values: c.values}
		if got := s.steady(); got != c.steady {
			t.Errorf("%v: steady = %v, want %v", c.values, got, c.steady)
		}
	}
}

// TestJSONLineKeepsModeMetrics: the JSON line carries the mode's metrics
// only, each as the median of its values, and the tally's counts.
func TestJSONLineKeepsModeMetrics(t *testing.T) {
	r := &report{}
	r.add("setup_s", 3)
	r.add("setup_s", 1)
	r.add("setup_s", 2)
	r.add("host.wall_s", 9)
	r.tally.point("p", nil)
	line, err := jsonLine([]namedReport{{rep: r}}, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":2,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("got %s, want %s", line, want)
	}
}

// TestSpecsMatchBenchmarkJSON holds the metric tables and workload list to
// BENCHMARK.json, which declares them to whoever runs the benchmark.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the endToEnd table")
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the perLayer table")
	}
	var names []string
	for _, w := range workloads(false) {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range doc.Workloads {
		declared = append(declared, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark %v", declared, names)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d or paths %v out of contract", doc.RunSeconds, doc.Paths)
	}
	var setup *metricSpec
	for i, m := range doc.EndToEnd {
		if m.Name == "setup_s" {
			setup = &doc.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range doc.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}
