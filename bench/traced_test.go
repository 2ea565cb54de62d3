package main

import "testing"

// TestTracedMatchesKernel: the class driver with timed agents reproduces the
// kernel's simulated result on every machine kind and worker count, run to
// completion or for a fixed window.
func TestTracedMatchesKernel(t *testing.T) {
	cases := []point{
		{proto: protoScorpio, bench: "fft", mesh: 4, work: 60, warmup: 40},
		{proto: protoLPD, bench: "fft", mesh: 4, work: 60, warmup: 40},
		{proto: protoHT, bench: "fft", mesh: 4, work: 60, warmup: 40},
		{proto: protoScorpio, bench: "fft", mesh: 4, work: 60, warmup: 40, workers: 2},
		{proto: protoScorpio, bench: "swaptions", mesh: 4, warmup: 40, cycles: 3000, intensity: 0.1},
	}
	for _, p := range cases {
		ref := runPoint(p, 5, nil)
		if ref.err != nil {
			t.Fatalf("%s: %v", p.label(), ref.err)
		}
		tp, err := runTraced(p, 5, 2*ref.out.cycles+1000, keepAll)
		if err != nil {
			t.Fatalf("%s traced: %v", p.label(), err)
		}
		if tp.digest != ref.digest || tp.cycles != ref.out.cycles {
			t.Errorf("%s: traced digest %016x in %d cycles, kernel %016x in %d",
				p.label(), tp.digest, tp.cycles, ref.digest, ref.out.cycles)
		}
		var charged int64
		for l := layerNoC; l < numLayers; l++ {
			charged += tp.clk.ns[l]
		}
		if charged <= 0 || tp.clk.ns[layerNoC] <= 0 || tp.clk.ns[layerTrace] <= 0 {
			t.Errorf("%s: layers charged %v", p.label(), tp.clk.ns)
		}
	}
}

// TestTracedWithoutNotifFails proves the digest check catches a driver that
// skips a class: without the notification network nothing is ordered.
func TestTracedWithoutNotifFails(t *testing.T) {
	p := point{proto: protoScorpio, bench: "fft", mesh: 4, work: 60, warmup: 40}
	ref := runPoint(p, 5, nil)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	tp, err := runTraced(p, 5, 2*ref.out.cycles+1000, func(c class) bool { return c.layer != layerNotif })
	if err == nil && tp.digest == ref.digest {
		t.Fatal("a traced run without the notification network matched the kernel's digest")
	}
}
