// Command scorpiotop is a terminal live dashboard for a running simulation.
// It attaches to the telemetry exporter of any run started with a telemetry
// address (scorpiosim -telemetry :8090, or a scorpio.Config with
// TelemetryAddr), polls its /metrics page, and renders cycles/s, p50/p99
// service latency, parks/wakes/active-units and the ASCII router-utilization
// heatmap, refreshing in place.
//
//	scorpiosim -bench barnes -work 100000 -telemetry :8090 &
//	scorpiotop :8090
//
// The dashboard is read-only and disposable: a scrape copies the exporter's
// published page and never waits on the simulation.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"scorpio/internal/obs"
)

func main() {
	var (
		once    = flag.Bool("once", false, "render one frame and exit (CI/smoke mode)")
		every   = flag.Duration("every", time.Second, "refresh period (one /metrics scrape per frame)")
		timeout = flag.Duration("timeout", 10*time.Second, "give up if no sample tick is published within this window")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scorpiotop [flags] ADDR\n\nADDR is the -telemetry address of a running simulation (\":8090\",\n\"host:8090\" or \"http://host:8090\").\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "scorpiotop: a telemetry address is required (the -telemetry ADDR of the running sim)")
		flag.Usage()
		os.Exit(2)
	}
	base := normalize(flag.Arg(0))

	if err := run(base, *once, *every, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "scorpiotop:", err)
		os.Exit(1)
	}
}

// normalize turns ":8090" / "host:8090" / "http://..." into a base URL.
func normalize(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}

// run scrapes base every period and renders a frame per scrape, once the
// exporter has published its first sample tick.
func run(base string, once bool, every, timeout time.Duration) error {
	if !once {
		fmt.Print("\x1b[2J") // clear once; frames repaint from home
	}
	deadline := time.Now().Add(timeout)
	var prev, cur page
	frames := 0
	for ; ; time.Sleep(every) {
		pg, err := scrape(base)
		if err != nil {
			if frames > 0 {
				fmt.Println()
				return nil // the run finished and closed its exporter
			}
			return fmt.Errorf("%w (is the sim running with -telemetry?)", err)
		}
		if pg.vals["sample_ticks"] == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("no sample tick within %s (is the run long enough for the telemetry interval?)", timeout)
			}
			continue
		}
		prev, cur = cur, pg
		render(base, prev, cur, once)
		frames++
		if once {
			return nil
		}
	}
}

// render paints one dashboard frame; prev is the previous scrape (zero on
// the first frame), which the rates need. In live mode the cursor homes
// first so the frame overwrites the previous one in place.
func render(base string, prev, cur page, once bool) {
	var b strings.Builder
	if !once {
		b.WriteString("\x1b[H")
	}
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
		if !once {
			b.WriteString("\x1b[K") // clear stale tail of the previous frame
		}
		b.WriteByte('\n')
	}

	v := cur.vals
	cycles := 0.0
	if prev.vals != nil {
		cycles = v["cycle"] - prev.vals["cycle"]
	}
	line("scorpiotop — %s", base)
	cps := 0.0
	if cycles > 0 && cur.at.After(prev.at) {
		cps = cycles / cur.at.Sub(prev.at).Seconds()
	}
	line("cycle %-12.0f %10.0f cycles/s", v["cycle"], cps)
	line("service latency    p50 %4.0f  p99 %4.0f cycles", v["lat_p50"], v["lat_p99"])
	line("network            %.0f injected, %.0f ejected, %.0f flits routed, %.0f buffered",
		v["injected"], v["ejected"], v["flits_routed"], v["buffered_flits"])
	line("activity           %.0f units active, %.0f outstanding misses",
		v["active_units"], v["outstanding"])
	rate := func(name string) float64 {
		if cycles <= 0 {
			return 0
		}
		return (v[name] - prev.vals[name]) / cycles * 1000
	}
	line("engine             %.1f parks, %.1f wakes per kcycle (totals %.0f / %.0f)",
		rate("parks"), rate("wakes"), v["parks"], v["wakes"])
	if h := cur.heat; len(h.util) > 0 {
		rows, peak := obs.HeatRows(h.w, h.h, h.util)
		line("")
		line("router utilization (flits/cycle, last window; max %.3f)", peak)
		for _, row := range rows {
			line("  %s", row)
		}
	}
	os.Stdout.WriteString(b.String())
}

// page is one parsed /metrics scrape.
type page struct {
	at time.Time // the client's clock when the scrape returned
	// vals holds every unlabelled sample, keyed by its name without the
	// "scorpio_" prefix or a counter's "_total" suffix ("cycle",
	// "sample_ticks", "injected", "lat_p50", ...).
	vals map[string]float64
	heat heatmap
}

// heatmap is the parsed scorpio_router_utilization grid.
type heatmap struct {
	w, h int
	util []float64 // row-major
}

// scrape GETs base/metrics and parses the exposition. Labelled samples other
// than the router-utilization grid (per-worker counters, wake edges, the run
// label) are skipped.
func scrape(base string) (page, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return page{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return page{}, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	pg := page{vals: map[string]float64{}}
	type cell struct {
		x, y int
		v    float64
	}
	var cells []cell
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return page{}, fmt.Errorf("bad sample %q: %v", line, err)
		}
		name, labels, labelled := strings.Cut(line[:sp], "{")
		if !labelled {
			pg.vals[strings.TrimSuffix(strings.TrimPrefix(name, "scorpio_"), "_total")] = v
			continue
		}
		if name != "scorpio_router_utilization" {
			continue
		}
		c := cell{v: v}
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			k, val, _ := strings.Cut(kv, "=")
			n, _ := strconv.Atoi(strings.Trim(val, `"`))
			switch k {
			case "x":
				c.x = n
			case "y":
				c.y = n
			}
		}
		cells = append(cells, c)
		pg.heat.w = max(pg.heat.w, c.x+1)
		pg.heat.h = max(pg.heat.h, c.y+1)
	}
	if err := sc.Err(); err != nil {
		return page{}, err
	}
	pg.at = time.Now()
	if len(cells) > 0 {
		pg.heat.util = make([]float64, pg.heat.w*pg.heat.h)
		for _, c := range cells {
			pg.heat.util[c.y*pg.heat.w+c.x] = c.v
		}
	}
	return pg, nil
}
