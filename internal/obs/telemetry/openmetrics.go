package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"scorpio/internal/obs/perfmon"
)

// ContentType is the /metrics response content type.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// expo is a minimal OpenMetrics text-exposition writer. All rendering happens
// on the HTTP goroutine, so allocation here is free.
type expo struct {
	w   io.Writer
	err error
}

func (e *expo) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// family emits the HELP and TYPE lines for one metric family. For counters
// the family name excludes the _total suffix (the samples add it), per the
// OpenMetrics spec.
func (e *expo) family(name string, kind Kind, help string) {
	e.printf("# HELP %s %s\n", name, escapeHelp(help))
	e.printf("# TYPE %s %s\n", name, kind)
}

// sample emits one sample line. labels is either empty or a pre-rendered
// `key="value",...` list (values already escaped).
func (e *expo) sample(name, labels string, v float64) {
	if labels != "" {
		e.printf("%s{%s} %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
		return
	}
	e.printf("%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

// writeMetrics renders the full exposition: the published page series, the
// perfmon worker counters and wake-edge census, shard-balance stats and the
// router-utilization grid, terminated by the mandatory # EOF line.
func writeMetrics(w io.Writer, pub *Publisher, opt Options, snap *Snapshot) error {
	e := &expo{w: w}

	e.family("scorpio_run", Gauge, "Run identity; the label carries the machine/profile name.")
	e.sample("scorpio_run", `label="`+escapeLabel(opt.Label)+`"`, 1)

	e.family("scorpio_cycle", Gauge, "Current simulated cycle at the last sample tick.")
	e.sample("scorpio_cycle", "", float64(snap.Cycle))
	e.family("scorpio_sample_ticks", Counter, "Sampler ticks published to the telemetry page.")
	e.sample("scorpio_sample_ticks_total", "", float64(snap.Tick))

	for i, s := range pub.Series() {
		name := "scorpio_" + s.Name
		e.family(name, s.Kind, s.Help)
		if s.Kind == Counter {
			name += "_total"
		}
		e.sample(name, "", snap.Vals[i])
	}

	if opt.Workers != nil {
		e.family("scorpio_workers", Gauge, "Kernel worker count (1 = serial).")
		e.sample("scorpio_workers", "", float64(opt.Workers()))
	}

	if m := opt.Mon; m != nil {
		type wfam struct {
			name string
			help string
			get  func(*perfmon.Worker) float64
		}
		fams := []wfam{
			{"scorpio_worker_eval_ns", "Sampled evaluate-phase nanoseconds per worker.",
				func(w *perfmon.Worker) float64 { return float64(w.EvalNs.Load()) }},
			{"scorpio_worker_commit_ns", "Sampled commit-phase nanoseconds per worker.",
				func(w *perfmon.Worker) float64 { return float64(w.CommitNs.Load()) }},
			{"scorpio_worker_spin_ns", "Sampled barrier busy-spin nanoseconds per worker.",
				func(w *perfmon.Worker) float64 { return float64(w.SpinNs.Load()) }},
			{"scorpio_worker_park_ns", "Sampled barrier futex-park nanoseconds per worker.",
				func(w *perfmon.Worker) float64 { return float64(w.ParkNs.Load()) }},
			{"scorpio_worker_sampled_cycles", "Cycles with nanotime sampling per worker.",
				func(w *perfmon.Worker) float64 { return float64(w.Sampled.Load()) }},
			{"scorpio_worker_epochs_led", "Sampled epochs this worker arrived last and led the barrier.",
				func(w *perfmon.Worker) float64 { return float64(w.Led.Load()) }},
			{"scorpio_worker_epochs_followed", "Sampled epochs this worker waited at the barrier.",
				func(w *perfmon.Worker) float64 { return float64(w.Followed.Load()) }},
		}
		for _, f := range fams {
			e.family(f.name, Counter, f.help)
			for i := 0; i < m.Workers(); i++ {
				e.sample(f.name+"_total", `worker="`+strconv.Itoa(i)+`"`, f.get(m.Worker(i)))
			}
		}
	}

	if opt.WakeEdges != nil {
		edges := opt.WakeEdges()
		e.family("scorpio_wakes", Counter, "Successful parked-unit wake requests by producer edge.")
		for i, n := range edges {
			e.sample("scorpio_wakes_total", `edge="`+perfmon.WakeEdge(i).String()+`"`, float64(n))
		}
	}

	if opt.Balance != nil {
		reb, mig := opt.Balance()
		e.family("scorpio_shard_rebalances", Counter, "Cost-balancing shard repacks.")
		e.sample("scorpio_shard_rebalances_total", "", float64(reb))
		e.family("scorpio_shard_migrations", Counter, "Scheduling units moved between shards by repacks.")
		e.sample("scorpio_shard_migrations_total", "", float64(mig))
	}

	if hw, hh := pub.HeatDims(); hw > 0 && hh > 0 && len(snap.Heat) == hw*hh {
		e.family("scorpio_router_utilization", Gauge,
			"Per-router flits routed per cycle over the last sample window.")
		for y := 0; y < hh; y++ {
			for x := 0; x < hw; x++ {
				e.sample("scorpio_router_utilization",
					`x="`+strconv.Itoa(x)+`",y="`+strconv.Itoa(y)+`"`,
					snap.Heat[y*hw+x])
			}
		}
	}

	e.printf("# EOF\n")
	return e.err
}
