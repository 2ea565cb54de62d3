package noc

import (
	"strings"
	"testing"

	"scorpio/internal/obs"
	"scorpio/internal/sim"
)

// starvedEndpoint injects like testEndpoint but never consumes its eject
// link: arriving flits sit on the link, no credits flow back, and the
// routers upstream of the destination starve.
type starvedEndpoint struct {
	*testEndpoint
}

func (e *starvedEndpoint) Evaluate(cycle uint64) {
	e.term.TakeCredits(cycle)
	// Deliberately NOT draining the eject link.
	e.inject(cycle)
}

// TestWatchdogNamesStarvedRouter forces a credit-starved stall — node 3
// never drains its eject link while node 0 keeps sending it multi-flit
// responses — and checks the watchdog trips with a snapshot that names the
// router and VC holding the oldest stuck flit.
func TestWatchdogNamesStarvedRouter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	eps := make([]*testEndpoint, cfg.Nodes())
	for i := range eps {
		eps[i] = newTestEndpoint(m, i)
		var ep sim.Component = eps[i]
		if i == 3 {
			ep = &starvedEndpoint{eps[i]}
		}
		k.Register(ep)
	}
	m.Register(k)
	for i := 0; i < 20; i++ {
		eps[0].Queue(&Packet{ID: m.NextPacketID(), VNet: UOResp, Src: 0, Dst: 3, Flits: 5})
	}

	wd := obs.NewWatchdog(100,
		func() (uint64, bool) {
			return uint64(len(eps[3].Received)), m.BufferedFlits() > 0
		},
		func() string { return m.Snapshot(k.Cycle()) },
	)
	k.SetObserver(wd.Observe)
	k.RunUntil(wd.Stalled, 5000)

	if !wd.Stalled() {
		t.Fatal("credit-starved network never tripped the watchdog")
	}
	report := wd.Report()
	if !strings.Contains(report, "no ejections for 100 cycles") {
		t.Errorf("report missing stall summary:\n%s", report)
	}
	if !strings.Contains(report, "culprit: router") {
		t.Errorf("report does not name a culprit router:\n%s", report)
	}
	if !strings.Contains(report, "vc") {
		t.Errorf("report does not name the stuck VC:\n%s", report)
	}
	// The stuck traffic heads to node 3; the culprit must be one of the
	// routers on the XY path 0 -> 1 -> 3, not some unrelated corner.
	culprit := report[strings.Index(report, "culprit: router"):]
	if !strings.HasPrefix(culprit, "culprit: router 0") &&
		!strings.HasPrefix(culprit, "culprit: router 1") &&
		!strings.HasPrefix(culprit, "culprit: router 3") {
		t.Errorf("culprit router not on the starved path:\n%s", report)
	}
}

// TestWatchdogSilentOnHealthyTraffic drives the same mesh with draining
// endpoints and a tight threshold: the watchdog must never trip.
func TestWatchdogSilentOnHealthyTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	k, m, eps := testNet(t, cfg)
	for i := 0; i < 20; i++ {
		eps[0].Queue(&Packet{ID: m.NextPacketID(), VNet: UOResp, Src: 0, Dst: 3, Flits: 5})
	}
	wd := obs.NewWatchdog(100,
		func() (uint64, bool) {
			return uint64(len(eps[3].Received)), m.BufferedFlits() > 0
		},
		func() string { return m.Snapshot(k.Cycle()) },
	)
	k.SetObserver(wd.Observe)
	drain(t, k, func() bool { return wd.Stalled() || len(eps[3].Received) == 20 }, 5000)
	if wd.Stalled() {
		t.Fatalf("healthy run tripped the watchdog:\n%s", wd.Report())
	}
}
