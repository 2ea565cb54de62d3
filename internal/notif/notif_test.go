package notif

import (
	"fmt"
	"slices"
	"testing"

	"scorpio/internal/sim"
)

// fixedSource offers a scripted count per window.
type fixedSource struct {
	offers []int // per window
	stops  []bool
	window int
	net    *Network
}

func (s *fixedSource) NotificationOffer() (int, bool) {
	w := s.window
	s.window++
	count, stop := 0, false
	if w < len(s.offers) {
		count = s.offers[w]
	}
	if w < len(s.stops) {
		stop = s.stops[w]
	}
	return count, stop
}

func runWindows(t *testing.T, cfg Config, sources map[int]*fixedSource, windows int) []Vector {
	t.Helper()
	net, err := NewNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for node, s := range sources {
		s.net = net
		net.AttachSource(node, s)
	}
	k := sim.NewKernel()
	k.Register(net)
	var delivered []Vector
	for c := 0; c < windows*cfg.Window(); c++ {
		k.Step()
		if v, ok := net.Delivered(); ok {
			v.Words = slices.Clone(v.Words)
			delivered = append(delivered, v)
		}
	}
	return delivered
}

// drawnSource offers whatever the test drew for the current cycle.
type drawnSource struct {
	count int
	stop  bool
}

func (s *drawnSource) NotificationOffer() (int, bool) { return s.count, s.stop }

// hopByHop is the chip's OR-mesh, the reference for the closed form: each
// node's latch is seeded with its own offer, then ORs in its four
// neighbours' latches once per cycle for the window's remaining Window()−1
// cycles. Every latch must end up equal; it returns node 0's.
func hopByHop(t *testing.T, cfg Config, srcs []drawnSource) Vector {
	t.Helper()
	cur := make([]Vector, cfg.Nodes())
	next := make([]Vector, cfg.Nodes())
	for i := range cur {
		cur[i] = NewVector(cfg.Nodes(), cfg.BitsPerCore)
		cur[i].set(i, srcs[i].count)
		cur[i].Stop = srcs[i].stop
		next[i] = NewVector(cfg.Nodes(), cfg.BitsPerCore)
	}
	// Only core i ever sets field i, so a word-wise OR is the exact
	// per-field union.
	merge := func(dst *Vector, src Vector) {
		for i, w := range src.Words {
			dst.Words[i] |= w
		}
		dst.Stop = dst.Stop || src.Stop
	}
	for step := 1; step < cfg.Window(); step++ {
		for i := range next {
			copy(next[i].Words, cur[i].Words)
			next[i].Stop = cur[i].Stop
			x, y := i%cfg.Width, i/cfg.Width
			if x > 0 {
				merge(&next[i], cur[i-1])
			}
			if x < cfg.Width-1 {
				merge(&next[i], cur[i+1])
			}
			if y > 0 {
				merge(&next[i], cur[i-cfg.Width])
			}
			if y < cfg.Height-1 {
				merge(&next[i], cur[i+cfg.Width])
			}
		}
		cur, next = next, cur
	}
	for i := 1; i < len(cur); i++ {
		if !sameVector(cur[i], cur[0]) {
			t.Fatalf("reference: node %d's latch differs from node 0's after %d hops", i, cfg.Window()-1)
		}
	}
	return cur[0]
}

func sameVector(a, b Vector) bool {
	if a.Stop != b.Stop || len(a.Words) != len(b.Words) {
		return false
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			return false
		}
	}
	return true
}

// draw redraws every source's offer. A third of the cycles offer nothing, a
// third are sparse (about one node in N offers a request, and one in 4N
// stops) and a third are dense (every count drawn from 0..MaxPerWindow, about
// one node in N stops), so windows come empty, sparse, full, stopped and not.
func draw(rng *sim.RNG, cfg Config, srcs []drawnSource) {
	mode, n := rng.Intn(3), len(srcs)
	for i := range srcs {
		s := &srcs[i]
		s.count, s.stop = 0, false
		switch mode {
		case 1:
			if rng.Intn(n) == 0 {
				s.count = 1 + rng.Intn(cfg.MaxPerWindow())
			}
			s.stop = rng.Intn(4*n) == 0
		case 2:
			s.count = rng.Intn(cfg.MaxPerWindow() + 1)
			s.stop = rng.Intn(n) == 0
		}
	}
}

// TestClosedFormMatchesHopByHopMesh drives the network on every mesh from
// 1×1 to 8×8, at window lengths W+H−1 to W+H+2 and 1 to 3 bits per core,
// with offers redrawn on every cycle. At every window end the delivered
// vector and stop bit must equal the hop-by-hop mesh seeded with the offers
// current at the window's start, and stay intact while the next window
// starts filling. No other cycle and no all-zero window delivers.
func TestClosedFormMatchesHopByHopMesh(t *testing.T) {
	const windows = 6
	rng := sim.NewRNG(7)
	for w := 1; w <= 8; w++ {
		for h := 1; h <= 8; h++ {
			for win := w + h - 1; win <= w+h+2; win++ {
				for bits := 1; bits <= 3; bits++ {
					cfg := Config{Width: w, Height: h, BitsPerCore: bits, WindowCycles: win}
					name := fmt.Sprintf("%dx%d win %d bits %d", w, h, win, bits)
					net, err := NewNetwork(cfg, 1)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					srcs := make([]drawnSource, cfg.Nodes())
					for i := range srcs {
						net.AttachSource(i, &srcs[i])
					}
					var want, pub, pubWant Vector
					live, published := false, false
					for c := 0; c < windows*win; c++ {
						draw(rng, cfg, srcs)
						if c%win == 0 {
							want = hopByHop(t, cfg, srcs)
							live = want.Stop || want.Total() > 0
						}
						net.Evaluate(uint64(c))
						if published && !sameVector(pub, pubWant) {
							t.Fatalf("%s cycle %d: the published vector changed as the next window started", name, c)
						}
						net.Commit(uint64(c))
						v, ok := net.Delivered()
						if end := c%win == win-1; ok != (end && live) {
							t.Fatalf("%s cycle %d: delivered %v, want %v (window end %v, live %v)", name, c, ok, end && live, end, live)
						}
						if ok && !sameVector(v, want) {
							t.Fatalf("%s cycle %d: delivered %x stop %v, want %x stop %v", name, c, v.Words, v.Stop, want.Words, want.Stop)
						}
						published, pub, pubWant = ok, v, want
					}
				}
			}
		}
	}
}

func TestSingleNotificationDeliveredToAll(t *testing.T) {
	cfg := Config{Width: 6, Height: 6, BitsPerCore: 1}
	src := map[int]*fixedSource{14: {offers: []int{1}}}
	got := runWindows(t, cfg, src, 2)
	if len(got) != 1 {
		t.Fatalf("delivered %d windows, want 1", len(got))
	}
	for i := 0; i < cfg.Nodes(); i++ {
		want := 0
		if i == 14 {
			want = 1
		}
		if c := got[0].Count(i); c != want {
			t.Fatalf("field %d = %d, want %d", i, c, want)
		}
	}
}

func TestMergeOfConcurrentNotifications(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, BitsPerCore: 2}
	src := map[int]*fixedSource{
		0:  {offers: []int{3}},
		6:  {offers: []int{1}},
		15: {offers: []int{2}},
	}
	got := runWindows(t, cfg, src, 1)
	if len(got) != 1 {
		t.Fatalf("delivered %d windows, want 1", len(got))
	}
	v := got[0]
	if v.Count(0) != 3 || v.Count(6) != 1 || v.Count(15) != 2 {
		t.Fatalf("merged counts wrong: %v", v.Words)
	}
	if v.Total() != 6 {
		t.Fatalf("Total = %d, want 6", v.Total())
	}
}

func TestStopBitPropagates(t *testing.T) {
	cfg := Config{Width: 6, Height: 6, BitsPerCore: 1}
	src := map[int]*fixedSource{
		35: {offers: []int{0}, stops: []bool{true}},
		0:  {offers: []int{1}},
	}
	got := runWindows(t, cfg, src, 1)
	if len(got) != 1 || !got[0].Stop {
		t.Fatal("stop bit did not reach all nodes")
	}
	// The request count is still visible; consumers discard stopped windows.
	if got[0].Count(0) != 1 {
		t.Fatal("counts lost when stop asserted")
	}
}

func TestEmptyWindowDeliversNothing(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, BitsPerCore: 1}
	got := runWindows(t, cfg, nil, 3)
	if len(got) != 0 {
		t.Fatalf("empty windows delivered %d vectors", len(got))
	}
}

func TestSuccessiveWindowsIndependent(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, BitsPerCore: 1}
	src := map[int]*fixedSource{
		3: {offers: []int{1, 0, 1}},
		9: {offers: []int{0, 1, 0}},
	}
	got := runWindows(t, cfg, src, 3)
	if len(got) != 3 {
		t.Fatalf("delivered %d windows, want 3", len(got))
	}
	if got[0].Count(3) != 1 || got[0].Count(9) != 0 {
		t.Fatalf("window 0 wrong: %v", got[0].Words)
	}
	if got[1].Count(3) != 0 || got[1].Count(9) != 1 {
		t.Fatalf("window 1 wrong: %v", got[1].Words)
	}
	if got[2].Count(3) != 1 || got[2].Count(9) != 0 {
		t.Fatalf("window 2 leaked state: %v", got[2].Words)
	}
}

func TestRandomOffersPropertyAllNodesAgree(t *testing.T) {
	rng := sim.NewRNG(2024)
	for trial := 0; trial < 20; trial++ {
		w := 2 + rng.Intn(7)
		h := 2 + rng.Intn(7)
		bits := 1 + rng.Intn(3)
		cfg := Config{Width: w, Height: h, BitsPerCore: bits}
		want := make([]int, cfg.Nodes())
		src := map[int]*fixedSource{}
		for n := 0; n < cfg.Nodes(); n++ {
			if rng.Bernoulli(0.4) {
				c := 1 + rng.Intn(cfg.MaxPerWindow())
				want[n] = c
				src[n] = &fixedSource{offers: []int{c}}
			}
		}
		got := runWindows(t, cfg, src, 1)
		any := false
		for _, c := range want {
			if c > 0 {
				any = true
			}
		}
		if !any {
			if len(got) != 0 {
				t.Fatalf("trial %d: delivery without offers", trial)
			}
			continue
		}
		if len(got) != 1 {
			t.Fatalf("trial %d: delivered %d windows, want 1", trial, len(got))
		}
		for n, c := range want {
			if got[0].Count(n) != c {
				t.Fatalf("trial %d (%dx%d): field %d = %d, want %d", trial, w, h, n, got[0].Count(n), c)
			}
		}
	}
}

func TestWindowDefaults(t *testing.T) {
	cfg := Config{Width: 6, Height: 6, BitsPerCore: 1}
	if got := cfg.Window(); got != 13 {
		t.Fatalf("6x6 window = %d, want 13 (Table 1)", got)
	}
	cfg = Config{Width: 8, Height: 8, BitsPerCore: 1}
	if got := cfg.Window(); got != 17 {
		t.Fatalf("8x8 window = %d, want 17", got)
	}
	cfg = Config{Width: 10, Height: 10, BitsPerCore: 2}
	if got := cfg.MaxPerWindow(); got != 3 {
		t.Fatalf("2-bit max = %d, want 3", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 6, BitsPerCore: 1},
		{Width: 6, Height: 6, BitsPerCore: 0},
		{Width: 6, Height: 6, BitsPerCore: 9},
		{Width: 6, Height: 6, BitsPerCore: 1, WindowCycles: 5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	good := Config{Width: 6, Height: 6, BitsPerCore: 1, WindowCycles: 13}
	if err := good.Validate(); err != nil {
		t.Fatalf("chip config rejected: %v", err)
	}
}

func TestVectorHelpers(t *testing.T) {
	v := NewVector(4, 2)
	if v.Total() != 0 {
		t.Fatal("zero vector must announce nothing")
	}
	v.set(2, 3)
	if v.Total() != 3 || v.Count(2) != 3 || v.Count(1) != 0 {
		t.Fatal("vector must count core 2's three requests")
	}
}

// TestMergedKeepsLastNonStopWindows checks the history against the
// delivered vectors: Merged(i) is the i-th non-stop window's vector while
// it is among the last History() of them, and reports false once a later
// one has overwritten it. Stop windows take no slot.
func TestMergedKeepsLastNonStopWindows(t *testing.T) {
	cfg := Config{Width: 3, Height: 3, BitsPerCore: 2}
	const history, windows = 3, 40
	net, err := NewNetwork(cfg, history)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	srcs := make([]drawnSource, cfg.Nodes())
	for i := range srcs {
		net.AttachSource(i, &srcs[i])
	}
	var saved []Vector
	for c := 0; c < windows*cfg.Window(); c++ {
		draw(rng, cfg, srcs)
		net.Evaluate(uint64(c))
		net.Commit(uint64(c))
		if v, ok := net.Delivered(); ok && !v.Stop {
			v.Words = slices.Clone(v.Words)
			saved = append(saved, v)
		}
		for i := range saved {
			got, ok := net.Merged(uint64(i))
			if kept := i >= len(saved)-history; ok != kept {
				t.Fatalf("cycle %d: Merged(%d) ok=%v with %d non-stop windows delivered, want %v", c, i, ok, len(saved), kept)
			}
			if ok && !sameVector(got, saved[i]) {
				t.Fatalf("cycle %d: Merged(%d) = %x, delivered %x", c, i, got.Words, saved[i].Words)
			}
		}
		if _, ok := net.Merged(uint64(len(saved))); ok {
			t.Fatalf("cycle %d: Merged(%d) ok before that window was delivered", c, len(saved))
		}
	}
	if len(saved) < 2*history || net.StoppedWindows == 0 {
		t.Fatalf("%d non-stop and %d stop windows: the history never wrapped past a stop window", len(saved), net.StoppedWindows)
	}
}

// TestVectorPackedScan pins the packed representation across field widths
// and word boundaries: counts land in the right fields, NextFrom walks them
// in ascending order skipping zero words, and odd BitsPerCore values round
// up to the next power-of-two width.
func TestVectorPackedScan(t *testing.T) {
	for _, bits := range []int{1, 2, 3, 4, 8} {
		const nodes = 300 // several words at every width
		v := NewVector(nodes, bits)
		max := 1<<bits - 1
		set := map[int]int{0: 1, 63: 1, 64: max, 97: 1, 255: max, 299: 1}
		for i, c := range set {
			v.set(i, c)
		}
		want := []int{0, 63, 64, 97, 255, 299}
		k, total := 0, 0
		for i, c := v.NextFrom(0); i >= 0; i, c = v.NextFrom(i + 1) {
			if k >= len(want) || i != want[k] {
				t.Fatalf("bits=%d: NextFrom visited %d at step %d, want %v", bits, i, k, want)
			}
			if c != set[i] {
				t.Fatalf("bits=%d: field %d = %d, want %d", bits, i, c, set[i])
			}
			k++
			total += c
		}
		if k != len(want) || v.Total() != total {
			t.Fatalf("bits=%d: visited %d fields (Total=%d, sum=%d)", bits, k, v.Total(), total)
		}
		if i, _ := v.NextFrom(256); i != 299 {
			t.Fatalf("bits=%d: NextFrom(256) = %d, want 299", bits, i)
		}
	}
}
