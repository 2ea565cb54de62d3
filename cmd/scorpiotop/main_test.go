package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"scorpio/internal/obs/perfmon"
	"scorpio/internal/obs/telemetry"
)

// TestScrapeReadsExposition parses the exposition a real exporter serves:
// unlabelled samples by their short names, the router-utilization grid, and
// nothing from the other labelled families.
func TestScrapeReadsExposition(t *testing.T) {
	pub := telemetry.NewPublisher([]telemetry.Series{
		{Name: "injected", Kind: telemetry.Counter, Help: "packets injected"},
		{Name: "lat_p50", Kind: telemetry.Gauge, Help: "p50 latency"},
	}, 1, 3, 2)
	mon := perfmon.New()
	mon.EnsureWorkers(2)
	mon.Worker(1).EvalNs.Store(777)
	srv := telemetry.NewServer(pub, telemetry.Options{
		Label:     "SCORPIO/fft",
		Mon:       mon,
		WakeEdges: func() (w [perfmon.NumWakeEdges]uint64) { w[0] = 5; return w },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pub.Publish(4096, []float64{1234, 56}, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6})
	pg, err := scrape(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"cycle":        4096,
		"sample_ticks": 1,    // scorpio_sample_ticks_total, _total stripped
		"injected":     1234, // a schema counter
		"lat_p50":      56,   // a schema gauge
	} {
		if got, ok := pg.vals[name]; !ok || got != want {
			t.Errorf("vals[%q] = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if pg.heat.w != 3 || pg.heat.h != 2 || len(pg.heat.util) != 6 {
		t.Fatalf("heat grid %dx%d with %d cells, want 3x2 with 6", pg.heat.w, pg.heat.h, len(pg.heat.util))
	}
	if got := pg.heat.util[1*3+2]; got != 0.6 {
		t.Errorf("heat (x=2,y=1) = %v, want 0.6", got)
	}
	for name := range pg.vals {
		if strings.Contains(name, "worker_") || strings.HasPrefix(name, "wakes") || name == "run" {
			t.Errorf("labelled sample %q read as an unlabelled value", name)
		}
	}

	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	if _, err := scrape(down.URL); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("scrape of a 503 answer: %v, want an error naming the status", err)
	}
}
