// Command scorpiotop is a terminal live dashboard for a running simulation.
// It attaches to the telemetry exporter of any run started with a telemetry
// address (scorpiosim -telemetry :8090, experiments -telemetry :8090, or a
// scorpio.Config with TelemetryAddr), streams sample ticks over SSE, and
// renders cycles/s, p50/p99 service latency, parks/wakes/active-units and the
// ASCII router-utilization heatmap, refreshing in place.
//
//	scorpiosim -bench barnes -work 100000 -telemetry :8090 &
//	scorpiotop :8090
//
// The dashboard is read-only and disposable: closing it (or falling behind
// the stream) never affects the simulation — the exporter drops slow clients
// instead of stalling the kernel.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"scorpio/internal/obs"
)

// tick mirrors the exporter's SSE data frame.
type tick struct {
	Cycle  uint64             `json:"cycle"`
	WallNs int64              `json:"wall_ns"`
	Tick   uint64             `json:"tick"`
	Series map[string]float64 `json:"series"`
}

func main() {
	var (
		once    = flag.Bool("once", false, "render one frame and exit (CI/smoke mode)")
		heatIvl = flag.Duration("heat-every", time.Second, "router-heatmap refresh period (polls /metrics)")
		timeout = flag.Duration("timeout", 10*time.Second, "give up if no SSE tick arrives within this window")
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

	if err := run(base, *once, *heatIvl, *timeout); err != nil {
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

func run(base string, once bool, heatIvl, timeout time.Duration) error {
	resp, err := http.Get(base + "/stream")
	if err != nil {
		return fmt.Errorf("attach %s: %w (is the sim running with -telemetry?)", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("attach %s/stream: %s", base, resp.Status)
	}

	ticks := make(chan tick)
	errc := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var t tick
			if err := json.Unmarshal([]byte(line[len("data: "):]), &t); err != nil {
				continue
			}
			ticks <- t
		}
		errc <- fmt.Errorf("stream closed: %v", sc.Err())
	}()

	if !once {
		fmt.Print("\x1b[2J") // clear once; frames repaint from home
	}
	var prev, cur tick
	var heat heatmap
	lastHeat := time.Time{}
	frames := 0
	for {
		select {
		case t := <-ticks:
			prev, cur = cur, t
		case err := <-errc:
			if frames > 0 {
				fmt.Println()
				return nil // sim finished while we watched; not a failure
			}
			return err
		case <-time.After(timeout):
			return fmt.Errorf("no sample tick within %s (is the run long enough for the telemetry interval?)", timeout)
		}
		if cur.Tick == 0 {
			continue
		}
		if time.Since(lastHeat) >= heatIvl {
			if h, err := fetchHeat(base); err == nil {
				heat = h
			}
			lastHeat = time.Now()
		}
		render(base, prev, cur, heat, once)
		frames++
		if once {
			return nil
		}
	}
}

// render paints one dashboard frame. In live mode the cursor homes first so
// the frame overwrites the previous one in place.
func render(base string, prev, cur tick, heat heatmap, once bool) {
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

	line("scorpiotop — %s", base)
	cps := 0.0
	if prev.Tick > 0 && cur.WallNs > prev.WallNs {
		cps = float64(cur.Cycle-prev.Cycle) / (float64(cur.WallNs-prev.WallNs) / 1e9)
	}
	line("cycle %-12d %10.0f cycles/s", cur.Cycle, cps)
	line("service latency    p50 %4.0f  p99 %4.0f cycles",
		cur.Series["lat_p50"], cur.Series["lat_p99"])
	line("network            %.0f injected, %.0f ejected, %.0f flits routed, %.0f buffered",
		cur.Series["injected"], cur.Series["ejected"], cur.Series["flits_routed"], cur.Series["buffered_flits"])
	line("activity           %.0f units active, %.0f outstanding misses, wheel %.0f",
		cur.Series["active_units"], cur.Series["outstanding"], cur.Series["wheel_pending"])
	rate := func(name string) float64 {
		if prev.Tick == 0 || cur.Cycle <= prev.Cycle {
			return 0
		}
		return (cur.Series[name] - prev.Series[name]) / float64(cur.Cycle-prev.Cycle) * 1000
	}
	line("engine             %.1f parks, %.1f wakes per kcycle (totals %.0f / %.0f)",
		rate("parks"), rate("wakes"), cur.Series["parks"], cur.Series["wakes"])
	if len(heat.util) > 0 {
		rows, peak := obs.HeatRows(heat.w, heat.h, heat.util)
		line("")
		line("router utilization (flits/cycle, last window; max %.3f)", peak)
		for _, row := range rows {
			line("  %s", row)
		}
	}
	os.Stdout.WriteString(b.String())
}

// heatmap is the parsed scorpio_router_utilization grid.
type heatmap struct {
	w, h int
	util []float64 // row-major
}

// fetchHeat scrapes the scorpio_router_utilization family from /metrics.
// Parsing the exposition beats /snapshot here: a page read never waits on the
// simulation driver.
func fetchHeat(base string) (heatmap, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return heatmap{}, err
	}
	defer resp.Body.Close()
	type cell struct {
		x, y int
		v    float64
	}
	var cells []cell
	maxX, maxY := -1, -1
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "scorpio_router_utilization{") {
			continue
		}
		rest := line[len("scorpio_router_utilization{"):]
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			continue
		}
		var c cell
		for _, kv := range strings.Split(rest[:end], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			n, _ := strconv.Atoi(strings.Trim(v, `"`))
			switch k {
			case "x":
				c.x = n
			case "y":
				c.y = n
			}
		}
		c.v, _ = strconv.ParseFloat(strings.TrimSpace(rest[end+1:]), 64)
		cells = append(cells, c)
		if c.x > maxX {
			maxX = c.x
		}
		if c.y > maxY {
			maxY = c.y
		}
	}
	if err := sc.Err(); err != nil {
		return heatmap{}, err
	}
	if len(cells) == 0 {
		return heatmap{}, fmt.Errorf("no utilization series")
	}
	h := heatmap{w: maxX + 1, h: maxY + 1}
	h.util = make([]float64, h.w*h.h)
	sort.Slice(cells, func(i, j int) bool {
		return cells[i].y*h.w+cells[i].x < cells[j].y*h.w+cells[j].x
	})
	for _, c := range cells {
		h.util[c.y*h.w+c.x] = c.v
	}
	return h, nil
}
