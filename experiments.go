package scorpio

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"scorpio/internal/power"
	"scorpio/internal/stats"
	"scorpio/internal/trace"
)

// Scale shrinks or grows the experiment workloads. FullScale approximates
// the paper's trace lengths; QuickScale keeps the full sweep structure but
// runs each point briefly (tests and benchmarks use it).
type Scale struct {
	Work       uint64
	Warmup     uint64
	Benchmarks []string // nil = each figure's own benchmark list
	Seed       uint64
	CycleLimit uint64
	// Workers bounds how many simulation points a sweep runs concurrently;
	// 0 means runtime.GOMAXPROCS(0). Each point is an independent seeded
	// simulation, so concurrency never changes a figure's numbers.
	Workers int
	// WatchdogCycles arms the forward-progress watchdog on every point:
	// a run that delivers nothing for this many cycles while traffic is in
	// flight aborts with a network snapshot instead of burning the cycle
	// limit (0 = off).
	WatchdogCycles uint64
	// Audit attaches the online ordering/coherence auditor to every point;
	// the first invariant violation aborts the sweep with a diagnosis.
	Audit bool
}

// FullScale is the EXPERIMENTS.md reproduction scale.
var FullScale = Scale{Work: 400, Warmup: 300, Seed: 1}

// QuickScale runs each point briefly (CI-sized).
var QuickScale = Scale{Work: 80, Warmup: 120, Seed: 1}

func (s Scale) pick(defaults []string) []string {
	if s.Benchmarks != nil {
		return s.Benchmarks
	}
	return defaults
}

func (s Scale) config(p Protocol, bench string) Config {
	return Config{
		Protocol: p, Benchmark: bench,
		WorkPerCore: s.Work, WarmupPerCore: s.Warmup,
		Seed: s.Seed, CycleLimit: s.CycleLimit,
		WatchdogCycles: s.WatchdogCycles,
		Audit:          s.Audit,
	}
}

// runConfigs executes one simulation per config over a bounded pool of
// goroutines and returns the results in input order. labels annotate
// failures one-to-one with cfgs; when several points fail, the lowest-index
// error is reported, so error selection is as deterministic as the results.
func (s Scale) runConfigs(cfgs []Config, labels []string) ([]Result, error) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := Run(cfgs[i])
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", labels[i], err)
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Figure holds one reproduced figure: row labels × named series.
type Figure struct {
	ID     string
	Title  string
	Series []string
	Rows   []FigureRow
}

// FigureRow is one x-axis entry.
type FigureRow struct {
	Label  string
	Values []float64
}

// String renders the figure as an aligned table.
func (f Figure) String() string {
	header := append([]string{f.ID}, f.Series...)
	var rows [][]string
	for _, r := range f.Rows {
		cells := []string{r.Label}
		for _, v := range r.Values {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, cells)
	}
	return stats.Table(f.Title, header, rows)
}

// Chart renders the figure as grouped text bars (the visual analog of the
// paper's bar charts).
func (f Figure) Chart() string {
	c := stats.BarChart{Title: f.Title, Series: f.Series}
	for _, r := range f.Rows {
		c.Rows = append(c.Rows, stats.BarRow{Label: r.Label, Values: r.Values})
	}
	return c.String()
}

// Mean returns the average of a series across benchmark rows (the synthetic
// AVG row is excluded).
func (f Figure) Mean(series string) float64 {
	idx := f.seriesIndex(series)
	if idx < 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, r := range f.Rows {
		if r.Label == "AVG" {
			continue
		}
		sum += r.Values[idx]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanRatio returns the across-benchmark mean of series a divided by series
// b, row by row.
func (f Figure) MeanRatio(a, b string) float64 {
	ia, ib := f.seriesIndex(a), f.seriesIndex(b)
	if ia < 0 || ib < 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, r := range f.Rows {
		if r.Label == "AVG" || r.Values[ib] == 0 {
			continue
		}
		sum += r.Values[ia] / r.Values[ib]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (f Figure) seriesIndex(series string) int {
	for i, s := range f.Series {
		if s == series {
			return i
		}
	}
	return -1
}

// fig6Benchmarks is the paper's Figure 6a benchmark list.
var fig6Benchmarks = []string{
	"barnes", "fft", "fmm", "lu", "nlu", "radix", "water-nsq", "water-spatial",
	"blackscholes", "canneal", "fluidanimate", "swaptions",
}

// breakdownBenchmarks is the Figure 6b/6c subset.
var breakdownBenchmarks = []string{"barnes", "fft", "lu", "blackscholes", "canneal", "fluidanimate"}

// Figure6a reproduces the normalized-runtime comparison (LPD-D, HT-D,
// SCORPIO-D) for the given core count (36 or 64 in the paper). Values are
// normalized to LPD-D, matching the paper's presentation.
func Figure6a(scale Scale, nodes int) (Figure, error) {
	w, h := meshFor(nodes)
	fig := Figure{
		ID:     fmt.Sprintf("fig6a-%d", nodes),
		Title:  fmt.Sprintf("Figure 6a: normalized runtime, %d cores (lower is better)", nodes),
		Series: []string{"LPD-D", "HT-D", "SCORPIO-D"},
	}
	protos := []Protocol{LPDD, HTD, SCORPIO}
	benches := scale.pick(fig6Benchmarks)
	var cfgs []Config
	var labels []string
	for _, bench := range benches {
		var intensity float64
		if nodes > 36 {
			// The paper's benchmarks have fixed problem sizes, so
			// per-core miss intensity falls as cores grow (strong
			// scaling with sub-linear speedup). Equalise each
			// benchmark's aggregate access demand at ~1 access/cycle
			// machine-wide, the paper's sub-saturation regime (its
			// 64-core runs still favour SCORPIO "despite the broadcast
			// overhead"). Saturation at scale is Figure 10's subject.
			prof, err := trace.ByName(bench)
			if err != nil {
				return Figure{}, err
			}
			// Normalise by the benchmark's coherence-miss-prone
			// fraction too, so miss-heavy workloads (canneal) land in
			// the same sub-saturation regime as compute-heavy ones.
			intensity = 0.52 / ((prof.SharedFrac + prof.ColdFrac) * float64(nodes) * prof.IssueProb)
			if intensity > 1 {
				intensity = 1
			}
		}
		for _, p := range protos {
			cfg := scale.config(p, bench)
			cfg.Width, cfg.Height = w, h
			cfg.IntensityScale = intensity
			cfgs = append(cfgs, cfg)
			labels = append(labels, fmt.Sprintf("%s/%s", p, bench))
		}
	}
	results, err := scale.runConfigs(cfgs, labels)
	if err != nil {
		return Figure{}, err
	}
	for bi, bench := range benches {
		row := FigureRow{Label: bench}
		base := results[bi*len(protos)].Runtime()
		for i := range protos {
			row.Values = append(row.Values, results[bi*len(protos)+i].Runtime()/base)
		}
		fig.Rows = append(fig.Rows, row)
	}
	fig.Rows = append(fig.Rows, averageRow(fig.Rows))
	return fig, nil
}

// BreakdownFigure carries the Figure 6b/6c stacked-latency data: one row per
// (benchmark, protocol) with one value per latency component.
func breakdownFigure(scale Scale, id, title string, cacheServed bool) (Figure, error) {
	comps := []stats.BreakdownComponent{
		stats.NetReqToDir, stats.DirAccess, stats.NetDirToSharer,
		stats.NetBcastReq, stats.ReqOrdering, stats.SharerAccess, stats.NetResp,
	}
	fig := Figure{ID: id, Title: title}
	for _, c := range comps {
		fig.Series = append(fig.Series, c.String())
	}
	fig.Series = append(fig.Series, "Total")
	var cfgs []Config
	var labels []string
	for _, bench := range scale.pick(breakdownBenchmarks) {
		for _, p := range []Protocol{LPDD, HTD, SCORPIO} {
			cfgs = append(cfgs, scale.config(p, bench))
			labels = append(labels, fmt.Sprintf("%s/%s", bench, p))
		}
	}
	results, err := scale.runConfigs(cfgs, labels)
	if err != nil {
		return Figure{}, err
	}
	for i, res := range results {
		bd := &res.CacheServed
		if !cacheServed {
			bd = &res.MemServed
		}
		row := FigureRow{Label: labels[i]}
		for _, c := range comps {
			row.Values = append(row.Values, bd.Mean(c))
		}
		row.Values = append(row.Values, bd.Total())
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// Figure6b reproduces the served-by-other-caches latency breakdown.
func Figure6b(scale Scale) (Figure, error) {
	return breakdownFigure(scale, "fig6b", "Figure 6b: L2 miss latency breakdown, served by other caches (36 cores, cycles)", true)
}

// Figure6c reproduces the served-by-directory/memory latency breakdown.
func Figure6c(scale Scale) (Figure, error) {
	return breakdownFigure(scale, "fig6c", "Figure 6c: L2 miss latency breakdown, served by directory/memory (36 cores, cycles)", false)
}

// fig7Benchmarks is the paper's Figure 7 subset.
var fig7Benchmarks = []string{"blackscholes", "streamcluster", "swaptions", "vips"}

// Figure7 reproduces the TokenB/INSO comparison at 16 cores, normalized to
// SCORPIO.
func Figure7(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "fig7",
		Title:  "Figure 7: runtime normalized to SCORPIO, 16 cores",
		Series: []string{"SCORPIO", "TokenB", "INSO-20", "INSO-40", "INSO-80"},
	}
	type variant struct {
		p      Protocol
		window int
	}
	variants := []variant{{SCORPIO, 0}, {TokenB, 0}, {INSO, 20}, {INSO, 40}, {INSO, 80}}
	benches := scale.pick(fig7Benchmarks)
	var cfgs []Config
	var labels []string
	for _, bench := range benches {
		for _, v := range variants {
			cfg := scale.config(v.p, bench)
			cfg.Width, cfg.Height = 4, 4
			cfg.ExpiryWindow = v.window
			cfgs = append(cfgs, cfg)
			labels = append(labels, fmt.Sprintf("%s/%s", v.p, bench))
		}
	}
	results, err := scale.runConfigs(cfgs, labels)
	if err != nil {
		return Figure{}, err
	}
	for bi, bench := range benches {
		row := FigureRow{Label: bench}
		base := results[bi*len(variants)].Runtime()
		for i := range variants {
			row.Values = append(row.Values, results[bi*len(variants)+i].Runtime()/base)
		}
		fig.Rows = append(fig.Rows, row)
	}
	fig.Rows = append(fig.Rows, averageRow(fig.Rows))
	return fig, nil
}

// fig8Benchmarks is the SPLASH-2 sweep list of Figure 8.
var fig8Benchmarks = []string{"barnes", "fft", "fmm", "lu", "nlu", "radix", "water-nsq", "water-spatial"}

// Figure8a sweeps the channel width (8/16/32 bytes), normalized to the
// 16-byte, 4-VC chip baseline.
func Figure8a(scale Scale) (Figure, error) {
	return sweepFigure(scale, "fig8a", "Figure 8a: runtime vs channel width (normalized to CW=16B)",
		[]string{"CW=8B", "CW=16B", "CW=32B"}, 1,
		func(cfg *Config, i int) { cfg.ChannelBytes = []int{8, 16, 32}[i] })
}

// Figure8b sweeps the GO-REQ virtual channel count (2/4/6).
func Figure8b(scale Scale) (Figure, error) {
	return sweepFigure(scale, "fig8b", "Figure 8b: runtime vs GO-REQ VCs (normalized to 4 VCs)",
		[]string{"VCs=2", "VCs=4", "VCs=6"}, 1,
		func(cfg *Config, i int) { cfg.GOReqVCs = []int{2, 4, 6}[i] })
}

// Figure8c sweeps UO-RESP VCs against channel width.
func Figure8c(scale Scale) (Figure, error) {
	combos := []struct{ cw, vcs int }{{8, 2}, {8, 4}, {16, 2}, {16, 4}}
	names := []string{"CW=8B/VCs=2", "CW=8B/VCs=4", "CW=16B/VCs=2", "CW=16B/VCs=4"}
	s := scale
	if s.Benchmarks == nil {
		s.Benchmarks = []string{"fmm", "lu", "nlu", "radix", "water-nsq", "water-spatial"}
	}
	return sweepFigure(s, "fig8c", "Figure 8c: runtime vs UO-RESP VCs and channel width (normalized to CW=16B/VCs=2)",
		names, 2,
		func(cfg *Config, i int) { cfg.ChannelBytes = combos[i].cw; cfg.UORespVCs = combos[i].vcs })
}

// Figure8d sweeps the notification-network width (1/2/3 bits per core) with
// aggressive cores (six outstanding misses, per §5.2). Alongside the paper's
// normalized runtime it reports the request-ordering latency at the NICs,
// where the multi-bit encoding's burst-absorption benefit concentrates in
// this model (see EXPERIMENTS.md).
func Figure8d(scale Scale) (Figure, error) {
	s := scale
	if s.Benchmarks == nil {
		s.Benchmarks = []string{"fft", "fmm", "lu", "nlu", "radix", "water-nsq", "water-spatial"}
	}
	fig := Figure{
		ID:     "fig8d",
		Title:  "Figure 8d: notification bits/core, 6 outstanding misses (runtime normalized to 1b; ordering latency in cycles)",
		Series: []string{"BW=1b", "BW=2b", "BW=3b", "order@1b", "order@2b", "order@3b"},
	}
	benches := s.pick(fig8Benchmarks)
	var cfgs []Config
	var labels []string
	for _, bench := range benches {
		for i := 0; i < 3; i++ {
			cfg := s.config(SCORPIO, bench)
			cfg.NotifBits = i + 1
			cfg.MaxOutstanding = 6
			cfg.IntensityScale = 0.08
			cfgs = append(cfgs, cfg)
			labels = append(labels, fmt.Sprintf("fig8d[%db]/%s", i+1, bench))
		}
	}
	results, err := s.runConfigs(cfgs, labels)
	if err != nil {
		return Figure{}, err
	}
	for bi, bench := range benches {
		var rts, ords [3]float64
		for i := 0; i < 3; i++ {
			res := results[bi*3+i]
			rts[i] = res.Runtime()
			ords[i] = res.OrderingLat.Value()
		}
		fig.Rows = append(fig.Rows, FigureRow{Label: bench, Values: []float64{
			rts[0] / rts[0], rts[1] / rts[0], rts[2] / rts[0], ords[0], ords[1], ords[2],
		}})
	}
	fig.Rows = append(fig.Rows, averageRow(fig.Rows))
	return fig, nil
}

// sweepFigure runs one SCORPIO design sweep, normalizing to baseIdx.
func sweepFigure(scale Scale, id, title string, series []string, baseIdx int, mutate func(cfg *Config, i int)) (Figure, error) {
	fig := Figure{ID: id, Title: title, Series: series}
	benches := scale.pick(fig8Benchmarks)
	var cfgs []Config
	var labels []string
	for _, bench := range benches {
		for i := range series {
			cfg := scale.config(SCORPIO, bench)
			mutate(&cfg, i)
			cfgs = append(cfgs, cfg)
			labels = append(labels, fmt.Sprintf("%s[%s]/%s", id, series[i], bench))
		}
	}
	results, err := scale.runConfigs(cfgs, labels)
	if err != nil {
		return Figure{}, err
	}
	for bi, bench := range benches {
		base := results[bi*len(series)+baseIdx].Runtime()
		row := FigureRow{Label: bench}
		for i := range series {
			row.Values = append(row.Values, results[bi*len(series)+i].Runtime()/base)
		}
		fig.Rows = append(fig.Rows, row)
	}
	fig.Rows = append(fig.Rows, averageRow(fig.Rows))
	return fig, nil
}

// Figure9 reproduces the tile power and area breakdowns (analytical model,
// see internal/power).
func Figure9() (powerFig, areaFig Figure) {
	powerFig = Figure{ID: "fig9a", Title: "Figure 9a: tile power breakdown", Series: []string{"fraction", "mW"}}
	areaFig = Figure{ID: "fig9b", Title: "Figure 9b: tile area breakdown", Series: []string{"fraction", "mm2"}}
	pw := power.TilePowerBreakdown()
	pmw := power.TilePowerMWAt(power.NominalActivity())
	ar := power.TileAreaBreakdown()
	amm := power.TileAreaMM2Breakdown()
	comps := power.Components()
	sort.Slice(comps, func(i, j int) bool { return pw[comps[i]] > pw[comps[j]] })
	for _, c := range comps {
		powerFig.Rows = append(powerFig.Rows, FigureRow{Label: c.String(), Values: []float64{pw[c], pmw[c]}})
	}
	sort.Slice(comps, func(i, j int) bool { return ar[comps[i]] > ar[comps[j]] })
	for _, c := range comps {
		areaFig.Rows = append(areaFig.Rows, FigureRow{Label: c.String(), Values: []float64{ar[c], amm[c]}})
	}
	return powerFig, areaFig
}

// fig10Benchmarks is the paper's Figure 10 subset.
var fig10Benchmarks = []string{"barnes", "blackscholes", "canneal", "fft", "fluidanimate", "lu"}

// Figure10 reproduces the pipelining/scaling study: average L2 service
// latency for non-pipelined and pipelined uncore at 6×6, 8×8 and 10×10.
func Figure10(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "fig10",
		Title:  "Figure 10: average service latency (cycles), Non-PL vs PL uncore",
		Series: []string{"6x6 Non-PL", "6x6 PL", "8x8 Non-PL", "8x8 PL", "10x10 Non-PL", "10x10 PL"},
	}
	meshes := []int{6, 8, 10}
	benches := scale.pick(fig10Benchmarks)
	var cfgs []Config
	var labels []string
	for _, bench := range benches {
		for _, k := range meshes {
			for _, pl := range []bool{false, true} {
				cfg := scale.config(SCORPIO, bench)
				cfg.Width, cfg.Height = k, k
				// Keep injection rates (the figure's point is saturation at
				// scale) but bound the sample count so big meshes finish in
				// reasonable wall time; latency means converge early.
				cfg.WorkPerCore = scale.Work * 36 / uint64(k*k)
				cfg.WarmupPerCore = scale.Warmup * 36 / uint64(k*k)
				p := pl
				cfg.PipelinedL2 = &p
				cfgs = append(cfgs, cfg)
				labels = append(labels, fmt.Sprintf("fig10 %dx%d pl=%v %s", k, k, pl, bench))
			}
		}
	}
	results, err := scale.runConfigs(cfgs, labels)
	if err != nil {
		return Figure{}, err
	}
	perBench := 2 * len(meshes)
	for bi, bench := range benches {
		row := FigureRow{Label: bench}
		for i := 0; i < perBench; i++ {
			row.Values = append(row.Values, results[bi*perBench+i].Service.Value())
		}
		fig.Rows = append(fig.Rows, row)
	}
	fig.Rows = append(fig.Rows, averageRow(fig.Rows))
	return fig, nil
}

// Table1 renders the chip feature summary.
func Table1() string {
	var rows [][]string
	for _, f := range power.Table1() {
		rows = append(rows, []string{f.Name, f.Value})
	}
	return stats.Table("Table 1: SCORPIO chip features", []string{"Feature", "Value"}, rows)
}

// Table2 renders the multicore comparison.
func Table2() string {
	header := []string{"Processor", "Clock", "Power(W)", "Litho", "Cores", "ISA", "L2", "Consistency", "Coherence", "Interconnect"}
	var rows [][]string
	for _, r := range power.Table2() {
		rows = append(rows, []string{r.Name, r.Clock, r.PowerW, r.Lithography, r.Cores, r.ISA, r.L2, r.Consistency, r.Coherence, r.Interconnect})
	}
	return stats.Table("Table 2: multicore processor comparison", header, rows)
}

// averageRow appends the across-benchmark average (the paper's AVG bars).
func averageRow(rows []FigureRow) FigureRow {
	if len(rows) == 0 {
		return FigureRow{Label: "AVG"}
	}
	avg := FigureRow{Label: "AVG", Values: make([]float64, len(rows[0].Values))}
	for _, r := range rows {
		for i, v := range r.Values {
			avg.Values[i] += v
		}
	}
	for i := range avg.Values {
		avg.Values[i] /= float64(len(rows))
	}
	return avg
}

// meshFor maps a core count to mesh dimensions.
func meshFor(nodes int) (int, int) {
	switch nodes {
	case 16:
		return 4, 4
	case 36:
		return 6, 6
	case 64:
		return 8, 8
	case 100:
		return 10, 10
	default:
		k := 1
		for k*k < nodes {
			k++
		}
		return k, k
	}
}

// Headline summarises the paper's abstract-level claims from a Figure6a
// result: the average runtime reduction of SCORPIO-D vs LPD-D and HT-D.
func Headline(fig6a Figure) string {
	vsLPD := fig6a.MeanRatio("SCORPIO-D", "LPD-D")
	vsHT := fig6a.MeanRatio("SCORPIO-D", "HT-D")
	var sb strings.Builder
	fmt.Fprintf(&sb, "SCORPIO-D vs LPD-D: %.1f%% runtime reduction (paper: 24.1%%)\n", 100*(1-vsLPD))
	fmt.Fprintf(&sb, "SCORPIO-D vs HT-D:  %.1f%% runtime reduction (paper: 12.9%%)\n", 100*(1-vsHT))
	return sb.String()
}

// ServiceLatencySummary reproduces the Section 5.1 headline scalars: the
// average L2 service latency of each protocol over the Figure 6 benchmarks
// (the paper reports SCORPIO-D 78 cycles, LPD-D 94, HT-D 91), plus the
// fraction of misses served by other caches (~90% in the paper) and the
// average cache-to-cache miss latency (67 cycles, -19.4%/-18.3% vs the
// baselines).
func ServiceLatencySummary(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "service",
		Title:  "Section 5.1 headline: average L2 service latency (cycles)",
		Series: []string{"service", "p50", "p99", "max", "cache-served miss", "mem-served miss", "cache-served %"},
	}
	protos := []Protocol{LPDD, HTD, SCORPIO}
	benches := scale.pick(fig6Benchmarks)
	var cfgs []Config
	var labels []string
	for _, p := range protos {
		for _, bench := range benches {
			cfgs = append(cfgs, scale.config(p, bench))
			labels = append(labels, fmt.Sprintf("%s/%s", p, bench))
		}
	}
	results, err := scale.runConfigs(cfgs, labels)
	if err != nil {
		return Figure{}, err
	}
	for pi, p := range protos {
		var svc, cache, mem, frac stats.Mean
		hist := stats.NewHistogram(4, 512)
		for bi := range benches {
			res := results[pi*len(benches)+bi]
			svc.Observe(res.Service.Value())
			cache.Observe(res.CacheServed.Total())
			mem.Observe(res.MemServed.Total())
			frac.Observe(100 * res.ServedByCacheFrac())
			hist.Merge(res.ServiceHist)
		}
		fig.Rows = append(fig.Rows, FigureRow{
			Label: string(p),
			Values: []float64{svc.Value(),
				float64(hist.Percentile(50)), float64(hist.Percentile(99)), float64(hist.Percentile(100)),
				cache.Value(), mem.Value(), frac.Value()},
		})
	}
	return fig, nil
}
