package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// metricSpec declares one reported metric. The two tables below are the
// benchmark's contract and must match BENCHMARK.json at the repository root
// (TestSpecsMatchBenchmarkJSON holds them together).
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the bounded metrics a user of the simulator sees, measured
// untraced. allocs and heap_mb are fixed by the seed. Run time is not here:
// on the shared host the baseline comes from, its spread across runs stays
// above a third of any bound allowed (see README.md), so it is reported
// below, unbounded, as host.*.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"allocs", "count", "lower", bound(0.10)},
	{"heap_mb", "MB", "lower", bound(0.05)},
}

// perLayer are the traced run's metrics: host time of the untraced
// repetitions, then the per-layer split. A layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"host.wall_s", "s", "lower", nil},
	{"host.sim_cycles_per_s", "1/s", "higher", nil},
	{"host.ns_per_flit_hop", "ns", "lower", nil},
	{"noc.ns_per_cycle", "ns", "lower", nil},
	{"noc.share", "frac", "lower", nil},
	{"noc.flits_routed", "count", "lower", nil},
	{"noc.bypass_frac", "frac", "higher", nil},
	{"noc.alloc_stalls", "count", "lower", nil},
	{"noc.ns_per_flit", "ns", "lower", nil},
	{"nic.ns_per_cycle", "ns", "lower", nil},
	{"nic.share", "frac", "lower", nil},
	{"nic.ordering_latency_cycles", "cycles", "lower", nil},
	{"nic.deliveries", "count", "lower", nil},
	{"notif.ns_per_cycle", "ns", "lower", nil},
	{"notif.share", "frac", "lower", nil},
	{"notif.windows_delivered", "count", "lower", nil},
	{"coherence.ns_per_cycle", "ns", "lower", nil},
	{"coherence.share", "frac", "lower", nil},
	{"coherence.snoop_filter_frac", "frac", "higher", nil},
	{"coherence.l2_miss_frac", "frac", "lower", nil},
	{"coherence.fid_deferrals", "count", "lower", nil},
	{"mem.ns_per_cycle", "ns", "lower", nil},
	{"mem.share", "frac", "lower", nil},
	{"directory.ns_per_cycle", "ns", "lower", nil},
	{"directory.share", "frac", "lower", nil},
	{"directory.home_ns_per_cycle", "ns", "lower", nil},
	{"directory.l2_ns_per_cycle", "ns", "lower", nil},
	{"directory.transactions", "count", "lower", nil},
	{"directory.cache_miss_frac", "frac", "lower", nil},
	{"trace.ns_per_cycle", "ns", "lower", nil},
	{"trace.share", "frac", "lower", nil},
	{"sim.step_frac", "frac", "lower", nil},
	{"sim.parks_per_kcycle", "1/kcycle", "lower", nil},
	{"sim.activations_per_kcycle", "1/kcycle", "lower", nil},
	{"sim.demote_passes", "count", "lower", nil},
	{"sim.kernel_net_ns_per_cycle", "ns", "lower", nil},
	{"sim.spin_ns_per_cycle", "ns", "lower", nil},
	{"sim.park_ns_per_cycle", "ns", "lower", nil},
	{"sim.busy_frac", "frac", "higher", nil},
	{"sim.rebalances", "count", "lower", nil},
	{"sim.migrations", "count", "lower", nil},
	{"sim.parallel_speedup", "x", "higher", nil},
	{"bench.driver_ns_per_cycle", "ns", "lower", nil},
	{"bench.coverage", "frac", "higher", nil},
	{"fig6a.scorpio_over_lpd", "ratio", "lower", nil},
	{"fig6a.scorpio_over_ht", "ratio", "lower", nil},
	{"fig6a.lpd_err", "ratio", "lower", nil},
	{"fig6a.ht_err", "ratio", "lower", nil},
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks a spec against the naming rules the result consumer
// enforces; a malformed table is a bug, caught before any run.
func (s metricSpec) validate(needBound bool) error {
	switch {
	case !nameRule.MatchString(s.Name):
		return fmt.Errorf("metric name %q breaks the rule %s", s.Name, nameRule)
	case !unitRule.MatchString(s.Unit):
		return fmt.Errorf("metric %s: unit %q breaks the rule %s", s.Name, s.Unit, unitRule)
	case s.Better != "lower" && s.Better != "higher":
		return fmt.Errorf("metric %s: better must be lower or higher, not %q", s.Name, s.Better)
	case needBound && (s.Bound == nil || *s.Bound < 0 || *s.Bound > 0.25):
		return fmt.Errorf("metric %s: bound must be in [0, 0.25]", s.Name)
	case !needBound && s.Bound != nil:
		return fmt.Errorf("metric %s: per-layer metrics carry no bound", s.Name)
	}
	return nil
}

func validateSpecs() error {
	seen := map[string]bool{}
	for i, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if err := s.validate(i == 0); err != nil {
				return err
			}
			if seen[s.Name] {
				return fmt.Errorf("metric %s declared twice", s.Name)
			}
			seen[s.Name] = true
		}
	}
	return nil
}

// median returns the middle value (mean of the middle two for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method with the same integer
// arithmetic as Python's statistics.quantiles(v, n=4), which is how the
// spread bound is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

func minOf(v []float64) float64 { return sorted(v)[0] }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// tally counts attempted and failed simulation points and collects the
// reasons for each failure.
type tally struct {
	attempted, failed int
	problems          []string
}

// point records one simulation point's outcome; a non-nil err fails it.
func (t *tally) point(label string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.problems = append(t.problems, fmt.Sprintf("%s: %v", label, err))
	}
}

// check records a whole-workload check that is not a point of its own.
func (t *tally) check(err error) {
	if err != nil {
		t.problems = append(t.problems, err.Error())
	}
}

func (t *tally) correct() bool { return t.attempted > 0 && t.failed == 0 && len(t.problems) == 0 }

// sample is one metric's measurements across a run's repetitions.
type sample struct {
	spec   metricSpec
	values []float64
}

// steady reports whether the sample's spread stays within a third of its
// bound, the margin that keeps run-to-run noise from reading as a
// regression. Metrics without a bound are always steady.
func (m sample) steady() bool {
	return m.spec.Bound == nil || spread(m.values) <= *m.spec.Bound/3
}

// report is the printed result of one invocation.
type report struct {
	tally   tally
	metrics []sample
}

// add appends a value to the named metric, creating it from the spec tables.
// A ratio over nothing (a layer the workload lacks) reads 0, since JSON has
// no NaN.
func (r *report) add(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for i := range r.metrics {
		if r.metrics[i].spec.Name == name {
			r.metrics[i].values = append(r.metrics[i].values, v)
			return
		}
	}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if s.Name == name {
				r.metrics = append(r.metrics, sample{spec: s, values: []float64{v}})
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// missing lists the declared metrics of specs that r did not report.
func (r *report) missing(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		if !slices.ContainsFunc(r.metrics, func(m sample) bool { return m.spec.Name == s.Name }) {
			out = append(out, s.Name)
		}
	}
	return out
}

// writeTable prints every metric by name with its unit: the median, and for
// repeated measurements the min, max and sample count, plus the spread
// against the metric's bound.
func (r *report) writeTable(w io.Writer, prefix string) {
	for _, m := range r.metrics {
		med := median(m.values)
		line := fmt.Sprintf("%-40s %16.6g %-9s", prefix+m.spec.Name, med, m.spec.Unit)
		if len(m.values) > 1 {
			s := sorted(m.values)
			line += fmt.Sprintf(" min %.6g max %.6g n %d", s[0], s[len(s)-1], len(s))
			if !m.steady() {
				line += fmt.Sprintf(" (unsteady: spread %.3f > bound/3)", spread(m.values))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the result: the metrics of specs, each the median of its
// values, with names prefixed when several workloads share one line.
func jsonLine(parts []namedReport, specs []metricSpec) ([]byte, error) {
	out := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, p := range parts {
		out.Correct = out.Correct && p.rep.tally.correct()
		out.Attempted += p.rep.tally.attempted
		out.Failed += p.rep.tally.failed
		for _, m := range p.rep.metrics {
			if slices.ContainsFunc(specs, func(s metricSpec) bool { return s.Name == m.spec.Name }) {
				out.Metrics[p.prefix+m.spec.Name] = metricValue{Value: median(m.values), Unit: m.spec.Unit}
			}
		}
	}
	return json.Marshal(out)
}

type namedReport struct {
	prefix string
	rep    *report
}
