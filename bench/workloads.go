package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"scorpio/internal/directory"
	"scorpio/internal/obs"
	"scorpio/internal/obs/perfmon"
	"scorpio/internal/sim"
	"scorpio/internal/stats"
	"scorpio/internal/system"
	"scorpio/internal/trace"
)

// Protocols, named as the scorpio facade names them.
const (
	protoScorpio = "SCORPIO"
	protoLPD     = "LPD-D"
	protoHT      = "HT-D"
)

// Option values the facade (scorpio.Run) fills in by default; the
// benchmark builds machines the same way, which TestPointMatchesFacade pins.
const (
	dirCacheBytes  = 8 * 1024
	maxOutstanding = 2
	cycleLimit     = 50_000_000
)

// point is one simulated machine run: closed loop, each core holding at
// most maxOutstanding accesses plus the profile's think time, caches
// starting empty, warm-up accesses excluded from statistics.
type point struct {
	proto  string
	bench  string
	mesh   int // mesh is mesh×mesh
	warmup uint64
	// work is the measured accesses each core completes; the run ends when
	// every core has. With work 0 cores never finish, and the run ends after
	// exactly cycles cycles instead.
	work      uint64
	cycles    uint64
	intensity float64 // multiplies the profile's IssueProb; 0 keeps it
	workers   int     // kernel workers
}

func (p point) label() string {
	return fmt.Sprintf("%s/%s/%dx%d", p.proto, p.bench, p.mesh, p.mesh)
}

// workload is a named list of points; parallel points run at once, as a
// figure sweep runs them.
type workload struct {
	name     string
	points   []point
	parallel int
	fig6a    bool // the Figure 6a sweep, whose points come from fig6aPoints
}

var fig6aBenchmarks = []string{
	"barnes", "fft", "fmm", "lu", "nlu", "radix", "water-nsq", "water-spatial",
	"blackscholes", "canneal", "fluidanimate", "swaptions",
}

// fig6aPoints lists the Figure 6a sweep in the facade's order: per
// benchmark LPD-D, HT-D, SCORPIO at 6×6.
func fig6aPoints(benches []string, work, warmup uint64) []point {
	var pts []point
	for _, b := range benches {
		for _, proto := range []string{protoLPD, protoHT, protoScorpio} {
			pts = append(pts, point{proto: proto, bench: b, mesh: 6, work: work, warmup: warmup})
		}
	}
	return pts
}

// workloads returns the four workloads; smoke shrinks each to a fraction of
// its length. The single-machine workloads simulate a fixed window of
// cycles, so the host time they measure does not move with how long a
// seed's slowest core takes to finish.
func workloads(smoke bool) []workload {
	scale := func(full, small uint64) uint64 {
		if smoke {
			return small
		}
		return full
	}
	return []workload{
		// The Figure 6a sweep users wait for: 36 builds, the only workload
		// exercising internal/directory, and the paper's ratios.
		{
			name:     "fig6a-36",
			points:   fig6aPoints(fig6aBenchmarks, scale(400, 8), scale(300, 6)),
			parallel: runtime.GOMAXPROCS(0),
			fig6a:    true,
		},
		// The chip under heavy broadcast load: every cycle is stepped, so
		// router and NIC datapaths dominate and idle skipping gains nothing.
		{
			name:     "chip36-fft",
			points:   []point{{proto: protoScorpio, bench: "fft", mesh: 6, warmup: 300, cycles: scale(60_000, 1_200), workers: 1}},
			parallel: 1,
		},
		// The only workload with two kernel workers, where the phase pool
		// pays; routers take most of the step time.
		{
			name:     "mesh256-fft",
			points:   []point{{proto: protoScorpio, bench: "fft", mesh: 16, warmup: 5, cycles: scale(600, 300), workers: 2}},
			parallel: 1,
		},
		// A tenth of swaptions' issue rate: the activity engine parks units
		// and fast-forwards idle spans, and routers do little.
		{
			name:     "chip36-sparse",
			points:   []point{{proto: protoScorpio, bench: "swaptions", mesh: 6, warmup: 300, cycles: scale(300_000, 6_000), intensity: 0.1, workers: 1}},
			parallel: 1,
		},
	}
}

// machine is one built point: exactly one of s and d is set.
type machine struct {
	p point
	s *system.Scorpio
	d *system.Directory
}

// build assembles a point's machine with the facade's option mapping
// (scorpio.runScorpio / runDirectory with their defaults).
func build(p point, seed uint64, o *obs.Options) (*machine, error) {
	prof, err := trace.ByName(p.bench)
	if err != nil {
		return nil, err
	}
	if p.intensity > 0 {
		prof.IssueProb *= p.intensity
	}
	switch p.proto {
	case protoScorpio:
		opt := system.DefaultOptions(prof)
		opt.Core = opt.Core.WithMeshSize(p.mesh, p.mesh)
		opt.WorkPerCore, opt.WarmupPerCore = p.work, p.warmup
		opt.MaxOutstanding = maxOutstanding
		opt.Seed = seed
		opt.Workers = p.workers
		opt.L2.DataFlits = opt.Core.Net.DataPacketFlits()
		opt.Mem.TotalDirCacheBytes = dirCacheBytes
		opt.Obs = o
		s, err := system.NewScorpio(opt)
		if err != nil {
			return nil, err
		}
		return &machine{p: p, s: s}, nil
	case protoLPD, protoHT:
		v := directory.LPD
		if p.proto == protoHT {
			v = directory.HT
		}
		opt := system.DefaultDirectoryOptions(v, prof)
		opt.Net.Width, opt.Net.Height = p.mesh, p.mesh
		opt.L2 = directory.L2Config{}
		opt.Home = directory.HomeConfig{}
		opt.DirCacheBytes = dirCacheBytes
		opt.WorkPerCore, opt.WarmupPerCore = p.work, p.warmup
		opt.MaxOutstanding = maxOutstanding
		opt.Seed = seed
		opt.Workers = p.workers
		opt.Obs = o
		d, err := system.NewDirectory(opt)
		if err != nil {
			return nil, err
		}
		return &machine{p: p, d: d}, nil
	}
	return nil, fmt.Errorf("unknown protocol %q", p.proto)
}

func (m *machine) kernel() *sim.Kernel {
	if m.s != nil {
		return m.s.Kernel
	}
	return m.d.Kernel
}

func (m *machine) nodes() int { return m.p.mesh * m.p.mesh }

func (m *machine) injectors() []*trace.Injector {
	if m.s != nil {
		return m.s.Injectors
	}
	return m.d.Injectors
}

// run steps the machine on its kernel: to completion through the machine's
// own Run, which checks the global order, or for the point's fixed window.
func (m *machine) run() error {
	if m.p.work > 0 {
		var err error
		if m.s != nil {
			_, err = m.s.Run(cycleLimit)
		} else {
			_, err = m.d.Run(cycleLimit)
		}
		return err
	}
	m.kernel().Run(m.p.cycles)
	return m.verifyOrder()
}

// verifyOrder checks that every SCORPIO node saw the same ordered requests
// (directory machines have no global order).
func (m *machine) verifyOrder() error {
	if m.s != nil {
		return m.s.Net.VerifyGlobalOrder()
	}
	return nil
}

// outcome is what a run simulated, read from component state the way the
// machines' own result collection reads it.
type outcome struct {
	proto                        string
	cycles, lastDone, completed  uint64
	hits, misses                 uint64
	flits, bypasses, allocStalls uint64
	deliveries, windows          uint64
	snoops, filtered, fids       uint64
	dirTxns, dirHits, dirMisses  uint64
	ordering                     stats.Mean
	hist                         *stats.Histogram
	perCore                      []uint64 // completed accesses per core
}

func (m *machine) observe(cycles uint64) outcome {
	o := outcome{proto: m.p.proto, cycles: cycles, hist: stats.NewHistogram(4, 512)}
	for _, in := range m.injectors() {
		o.completed += in.Completed
		o.hist.Merge(in.ServiceHist)
		o.perCore = append(o.perCore, in.Completed)
		if in.DoneCycle > o.lastDone {
			o.lastDone = in.DoneCycle
		}
	}
	if s := m.s; s != nil {
		for _, l2 := range s.L2s {
			o.hits += l2.Stats.Hits
			o.misses += l2.Stats.Misses
			o.snoops += l2.Stats.SnoopsSeen
			o.filtered += l2.Stats.SnoopsFiltered
			o.fids += l2.Stats.FIDDeferrals
		}
		ns := s.Net.NetStats()
		o.flits, o.bypasses, o.allocStalls = ns.FlitsRouted, ns.Bypasses, ns.AllocStalls
		o.windows = s.Net.Notif().WindowsDelivered
		for i := 0; i < m.nodes(); i++ {
			st := &s.Net.NIC(i).Stats
			o.deliveries += st.DeliveredRequests + st.DeliveredResponses
			o.ordering.Merge(st.OrderingLatency)
		}
		return o
	}
	d := m.d
	for _, l2 := range d.L2s {
		o.hits += l2.Stats.Hits
		o.misses += l2.Stats.Misses
	}
	for _, h := range d.Homes {
		o.dirTxns += h.Stats.Transactions
		o.dirHits += h.Stats.DirCacheHits
		o.dirMisses += h.Stats.DirCacheMiss
	}
	ns := d.Mesh.Stats()
	o.flits, o.bypasses, o.allocStalls = ns.FlitsRouted, ns.Bypasses, ns.AllocStalls
	for _, n := range d.NICs {
		o.deliveries += n.Stats.DeliveredRequests + n.Stats.DeliveredResponses
	}
	return o
}

// runtime is the Figure 6a runtime: the cycle the last core finished.
func (o outcome) runtime() float64 {
	if o.lastDone > 0 {
		return float64(o.lastDone)
	}
	return float64(o.cycles)
}

// digest fingerprints the simulated outcome: any change in simulated
// behaviour moves it, while host speed never does.
func (o outcome) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, v := range []uint64{o.cycles, o.lastDone, o.completed, o.flits, o.hits, o.misses,
		o.hist.Count(), o.hist.Sum(), o.hist.Max(), o.hist.Overflow} {
		put(v)
	}
	for _, b := range o.hist.Buckets {
		put(b)
	}
	return h.Sum64()
}

// checkProgress fails a run that fell short: a core short of its warm-up and
// measured accesses when the point runs to completion, a machine that
// completed no access at all in a fixed window. (A window can end before
// every core of a cold 16×16 mesh has completed one.)
func (p point) checkProgress(o outcome) error {
	if p.work == 0 {
		if o.completed == 0 {
			return fmt.Errorf("no access completed in %d cycles", o.cycles)
		}
		return nil
	}
	for core, n := range o.perCore {
		if want := p.warmup + p.work; n < want {
			return fmt.Errorf("core %d completed %d accesses, want at least %d", core, n, want)
		}
	}
	return nil
}

// pointResult is one point's untraced run.
type pointResult struct {
	out    outcome
	digest uint64
	runNs  int64
	act    perfmon.ActivityCounters
	perf   *perfmon.Report // with a perf monitor attached
	err    error
}

// runPoint builds and runs one point on the kernel.
func runPoint(p point, seed uint64, o *obs.Options) pointResult {
	m, err := build(p, seed, o)
	if err != nil {
		return pointResult{err: err}
	}
	k := m.kernel()
	defer k.StopWorkers()
	t0 := time.Now()
	err = m.run()
	ns := time.Since(t0).Nanoseconds()
	out := m.observe(k.Cycle())
	if err == nil {
		err = p.checkProgress(out)
	}
	return pointResult{out: out, digest: out.digest(), runNs: ns, act: k.ActivityCounters(),
		perf: k.PerfReport(p.label(), "", ns), err: err}
}

// runPoints runs every point, parallel at a time, in input order, and
// returns the results by index.
func runPoints(pts []point, seed uint64, parallel int) []pointResult {
	out := make([]pointResult, len(pts))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel && w < len(pts); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = runPoint(pts[i], seed, nil)
			}
		}()
	}
	for i := range pts {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// setupResult is one set of builds: every point of the workload built once.
type setupResult struct {
	seconds float64
	heapMB  float64
}

// measureSetup builds every point once, timing each build from a collected
// heap and measuring the live heap the built machine holds.
func measureSetup(pts []point, seed uint64) (setupResult, error) {
	var out setupResult
	var ms runtime.MemStats
	for _, p := range pts {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		t0 := time.Now()
		m, err := build(p, seed, nil)
		out.seconds += time.Since(t0).Seconds()
		if err != nil {
			return out, fmt.Errorf("%s: %w", p.label(), err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		out.heapMB += float64(int64(ms.HeapAlloc)-int64(before)) / 1e6
		runtime.KeepAlive(m)
	}
	return out, nil
}

// setupSets is how many times the builds are repeated: at least 50 builds
// and at least 5 sets, so the median is taken over enough samples.
func setupSets(npoints int) int {
	n := (50 + npoints - 1) / npoints
	if n < 5 {
		n = 5
	}
	return n
}

// figure is the Figure 6a reduction of a sweep's results: per benchmark,
// runtime normalized to LPD-D.
type figure struct {
	rows [][3]float64 // LPD-D, HT-D, SCORPIO-D per benchmark
}

func fig6aFigure(res []pointResult) figure {
	var f figure
	for i := 0; i+2 < len(res); i += 3 {
		base := res[i].out.runtime()
		f.rows = append(f.rows, [3]float64{
			res[i].out.runtime() / base, res[i+1].out.runtime() / base, res[i+2].out.runtime() / base,
		})
	}
	return f
}

// avg is the figure's AVG row.
func (f figure) avg() [3]float64 {
	var a [3]float64
	for _, r := range f.rows {
		for i, v := range r {
			a[i] += v
		}
	}
	for i := range a {
		a[i] /= float64(len(f.rows))
	}
	return a
}

// scorpioOverHT is the across-benchmark mean of SCORPIO-D / HT-D.
func (f figure) scorpioOverHT() float64 {
	s := 0.0
	for _, r := range f.rows {
		s += r[2] / r[1]
	}
	return s / float64(len(f.rows))
}

// The paper's Figure 6a averages: SCORPIO-D cuts runtime 24.1% against
// LPD-D and 12.9% against HT-D.
const (
	paperScorpioOverLPD = 0.759
	paperScorpioOverHT  = 0.871
)

// fig6aTolerance is how far the sweep's average ratios may sit from the
// paper's. Across seeds 1-30 they stay within 0.035 of it; a model change
// that moves them further no longer reproduces Figure 6a.
const fig6aTolerance = 0.08

// check is the sweep's accuracy check: both average ratios within
// fig6aTolerance of the paper's.
func (f figure) check() error {
	lpd, ht := f.avg()[2], f.scorpioOverHT()
	if !(math.Abs(lpd-paperScorpioOverLPD) <= fig6aTolerance && math.Abs(ht-paperScorpioOverHT) <= fig6aTolerance) {
		return fmt.Errorf("fig6a: SCORPIO-D/LPD-D %.3f and SCORPIO-D/HT-D %.3f must lie within %.2f of the paper's %.3f and %.3f",
			lpd, ht, fig6aTolerance, paperScorpioOverLPD, paperScorpioOverHT)
	}
	return nil
}
