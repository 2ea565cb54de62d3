package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"scorpio/internal/obs"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64 // keep repeating the workload until this much time has passed
	traced  bool    // add the traced run and report per-layer metrics
	smoke   bool    // smoke-sized workloads: one set of builds, no accuracy check
}

// runWorkload measures one workload. Untraced, it times set-up and then
// repeats the workload for cfg.seconds. Traced, it repeats the same untraced
// runs as the reference, then runs the traced pass (and, for multi-worker
// points, a perfmon run and a serial run). Every simulated result is
// checked either way. The report holds every metric measured; the caller
// prints those of the mode's table.
func runWorkload(w workload, cfg config, log io.Writer) *report {
	rep := &report{}
	t := &rep.tally
	if !cfg.traced {
		sets := setupSets(len(w.points))
		if cfg.smoke {
			sets = 1
		}
		for i := 0; i < sets; i++ {
			s, err := measureSetup(w.points, cfg.seed)
			if err != nil {
				t.check(fmt.Errorf("setup: %w", err))
				break
			}
			rep.add("setup_s", s.seconds)
			rep.add("heap_mb", s.heapMB)
		}
	}

	var ref []pointResult
	var walls, runNs []float64
	start := time.Now()
	wall := 0.0
	// Whole repetitions only, at least one: stop once another would end more
	// than half a repetition past the deadline.
	for n := 0; n == 0 || time.Since(start).Seconds()+wall/2 < cfg.seconds; n++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res := runPoints(w.points, cfg.seed, w.parallel)
		wall = time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		for i, r := range res {
			err := r.err
			if err == nil && ref != nil && r.digest != ref[i].digest {
				err = fmt.Errorf("digest %016x differs from the first repetition's %016x", r.digest, ref[i].digest)
			}
			t.point(fmt.Sprintf("%s rep %d", w.points[i].label(), n+1), err)
		}
		if ref == nil {
			ref = res
		}
		rep.add("allocs", float64(m1.Mallocs-m0.Mallocs))
		walls = append(walls, wall)
		runNs = append(runNs, float64(sum(res).runNs))
	}

	// Host time: the best repetition. Every repetition simulates the same
	// thing (the digests say so), and interference from the host only ever
	// slows one down, so the fastest is the least disturbed.
	a := sum(ref)
	best := minOf(runNs)
	rep.add("host.wall_s", minOf(walls))
	rep.add("host.sim_cycles_per_s", float64(a.cycles)/(best/1e9))
	rep.add("host.ns_per_flit_hop", best/float64(a.flits))
	fmt.Fprintf(log, "%s: %d repetitions, %d cycles each; wall s min %.4g median %.4g; digest %016x\n",
		w.name, len(walls), a.cycles, minOf(walls), median(walls), digestOf(ref))

	var fig figure
	if w.fig6a {
		fig = fig6aFigure(ref)
		avg := fig.avg()
		fmt.Fprintf(log, "%s: AVG runtime vs LPD-D: HT-D %.3f, SCORPIO-D %.3f; SCORPIO-D/HT-D %.3f (paper %.3f / %.3f)\n",
			w.name, avg[1], avg[2], fig.scorpioOverHT(), paperScorpioOverLPD, paperScorpioOverHT)
		if !cfg.smoke {
			t.check(fig.check())
		}
	}
	if cfg.traced {
		tracedPass(w, cfg, ref, median(runNs)/float64(a.cycles), fig, rep, log)
	}
	return rep
}

// totals sums a run's points. runNs is the points' own run time, builds
// excluded, summed over points that may have run at once.
type totals struct {
	cycles, flits uint64
	runNs         int64
}

func sum(res []pointResult) totals {
	var a totals
	for _, r := range res {
		a.cycles += r.out.cycles
		a.flits += r.out.flits
		a.runNs += r.runNs
	}
	return a
}

// digestOf fingerprints a whole repetition from its points' digests, so
// that two runs with one seed can be compared from their logs.
func digestOf(res []pointResult) uint64 {
	h := fnv.New64a()
	for _, r := range res {
		binary.Write(h, binary.LittleEndian, r.digest)
	}
	return h.Sum64()
}

// tracedPass runs every point through the class driver, checks each digest
// against the untraced reference, and reports the per-layer metrics.
// untracedNs is the untraced kernel's median run time per cycle.
func tracedPass(w workload, cfg config, ref []pointResult, untracedNs float64, fig figure, rep *report, log io.Writer) {
	t := &rep.tally
	var ns [numLayers]int64
	var cycles uint64
	t0 := time.Now()
	for i, p := range w.points {
		tp, err := runTraced(p, cfg.seed, 2*ref[i].out.cycles+1000, keepAll)
		if err == nil && tp.digest != ref[i].digest {
			err = fmt.Errorf("traced digest %016x differs from the untraced %016x", tp.digest, ref[i].digest)
		}
		t.point(p.label()+" traced", err)
		for l, v := range tp.clk.ns {
			ns[l] += v
		}
		cycles += tp.cycles
	}
	fmt.Fprintf(log, "%s: traced pass: %.3f s, %d cycles\n", w.name, time.Since(t0).Seconds(), cycles)

	c := float64(cycles)
	var total int64
	for _, v := range ns {
		total += v
	}
	layerNs := func(name string, v int64) {
		rep.add(name+".ns_per_cycle", float64(v)/c)
		rep.add(name+".share", float64(v)/float64(total))
	}
	layerNs("noc", ns[layerNoC])
	layerNs("nic", ns[layerNIC])
	layerNs("notif", ns[layerNotif])
	layerNs("coherence", ns[layerCoherence])
	layerNs("mem", ns[layerMem])
	layerNs("directory", ns[layerHome]+ns[layerDirL2])
	layerNs("trace", ns[layerTrace])
	rep.add("directory.home_ns_per_cycle", float64(ns[layerHome])/c)
	rep.add("directory.l2_ns_per_cycle", float64(ns[layerDirL2])/c)
	rep.add("bench.driver_ns_per_cycle", float64(ns[layerBench])/c)
	rep.add("bench.coverage", 1-float64(ns[layerBench])/float64(total))
	rep.add("sim.kernel_net_ns_per_cycle", untracedNs-float64(total-ns[layerBench])/c)

	var o outcome
	var steps, parks, acts, demotes uint64
	for _, r := range ref {
		x := r.out
		o.cycles += x.cycles
		o.flits += x.flits
		o.bypasses += x.bypasses
		o.allocStalls += x.allocStalls
		o.deliveries += x.deliveries
		o.windows += x.windows
		o.ordering.Merge(x.ordering)
		o.snoops += x.snoops
		o.filtered += x.filtered
		if x.proto == protoScorpio {
			o.hits += x.hits
			o.misses += x.misses
		}
		o.fids += x.fids
		o.dirTxns += x.dirTxns
		o.dirHits += x.dirHits
		o.dirMisses += x.dirMisses
		steps += r.act.StepsExecuted
		parks += r.act.Parks
		acts += r.act.Activations
		demotes += r.act.DemotePasses
	}
	rep.add("noc.flits_routed", float64(o.flits))
	rep.add("noc.bypass_frac", frac(o.bypasses, o.flits))
	rep.add("noc.alloc_stalls", float64(o.allocStalls))
	rep.add("noc.ns_per_flit", float64(ns[layerNoC])/float64(o.flits))
	rep.add("nic.ordering_latency_cycles", o.ordering.Value())
	rep.add("nic.deliveries", float64(o.deliveries))
	rep.add("notif.windows_delivered", float64(o.windows))
	rep.add("coherence.snoop_filter_frac", frac(o.filtered, o.snoops))
	rep.add("coherence.l2_miss_frac", frac(o.misses, o.hits+o.misses))
	rep.add("coherence.fid_deferrals", float64(o.fids))
	rep.add("directory.transactions", float64(o.dirTxns))
	rep.add("directory.cache_miss_frac", frac(o.dirMisses, o.dirHits+o.dirMisses))
	rep.add("sim.step_frac", frac(steps, o.cycles))
	rep.add("sim.parks_per_kcycle", 1000*frac(parks, o.cycles))
	rep.add("sim.activations_per_kcycle", 1000*frac(acts, o.cycles))
	rep.add("sim.demote_passes", float64(demotes))

	poolMetrics(w, cfg, ref, rep, log)

	var lpd, ht, lpdErr, htErr float64
	if w.fig6a {
		lpd, ht = fig.avg()[2], fig.scorpioOverHT()
		lpdErr, htErr = math.Abs(lpd-paperScorpioOverLPD), math.Abs(ht-paperScorpioOverHT)
	}
	rep.add("fig6a.scorpio_over_lpd", lpd)
	rep.add("fig6a.scorpio_over_ht", ht)
	rep.add("fig6a.lpd_err", lpdErr)
	rep.add("fig6a.ht_err", htErr)
}

// poolMetrics reruns each multi-worker point with the perf monitor attached
// and once serially; both must reproduce the reference digest. Workloads
// without one report zeros. The speedup compares the serial run with the
// first untraced repetition, one run each.
func poolMetrics(w workload, cfg config, ref []pointResult, rep *report, log io.Writer) {
	t := &rep.tally
	var spin, park, busy, all int64
	var cycles, rebalances, migrations uint64
	speedup := 0.0
	for i, p := range w.points {
		if p.workers < 2 {
			continue
		}
		perf := runPoint(p, cfg.seed, &obs.Options{Perf: true})
		err := perf.err
		if err == nil && perf.digest != ref[i].digest {
			err = fmt.Errorf("perfmon digest %016x differs from %016x", perf.digest, ref[i].digest)
		}
		t.point(p.label()+" perfmon", err)
		if pr := perf.perf; err == nil && pr != nil {
			for _, wr := range pr.PerWorker {
				spin += wr.SpinNs
				park += wr.ParkNs
				busy += wr.EvalNs + wr.CommitNs
				all += wr.EvalNs + wr.CommitNs + wr.SpinNs + wr.ParkNs + wr.OtherNs
			}
			rebalances += pr.Rebalances
			migrations += pr.Migrations
			cycles += perf.out.cycles
		}
		serial := p
		serial.workers = 1
		one := runPoint(serial, cfg.seed, nil)
		err = one.err
		if err == nil && one.digest != ref[i].digest {
			err = fmt.Errorf("workers=1 digest %016x differs from workers=%d %016x", one.digest, p.workers, ref[i].digest)
		}
		t.point(serial.label()+" workers=1", err)
		speedup = float64(one.runNs) / float64(ref[i].runNs)
		fmt.Fprintf(log, "%s: workers=1 %.3f s, workers=%d %.3f s\n", w.name, float64(one.runNs)/1e9, p.workers, float64(ref[i].runNs)/1e9)
	}
	rep.add("sim.spin_ns_per_cycle", float64(spin)/float64(max(cycles, 1)))
	rep.add("sim.park_ns_per_cycle", float64(park)/float64(max(cycles, 1)))
	rep.add("sim.busy_frac", float64(busy)/float64(max(all, 1)))
	rep.add("sim.rebalances", float64(rebalances))
	rep.add("sim.migrations", float64(migrations))
	rep.add("sim.parallel_speedup", speedup)
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
