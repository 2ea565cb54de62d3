package system

import (
	"testing"

	"scorpio/internal/core"
	"scorpio/internal/tile"
	"scorpio/internal/trace"
)

// tileDriver issues a scripted access sequence through a Tile's AHB ports.
type tileDriver struct {
	t       *tile.Tile
	script  []tileOp
	next    int
	waiting bool
	Results []tile.Completion
}

type tileOp struct {
	port  tile.Port
	addr  uint64
	write bool
	value uint64
}

func (d *tileDriver) Evaluate(cycle uint64) {
	if d.waiting || d.next >= len(d.script) {
		return
	}
	op := d.script[d.next]
	if d.t.Access(op.port, op.addr, op.write, op.value, cycle) {
		d.waiting = true
	}
}

func (d *tileDriver) Commit(cycle uint64) {}

func (d *tileDriver) onComplete(c tile.Completion) {
	d.Results = append(d.Results, c)
	d.waiting = false
	d.next++
}

// TestFullStackTileIntegration drives the complete path — core port → L1 →
// AHB → L2 → ordered NoC → remote owner/memory — on a 16-core machine with
// the L1 layer attached, checking data values and inclusion end to end.
func TestFullStackTileIntegration(t *testing.T) {
	prof, err := trace.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(prof)
	opt.Core = core.DefaultConfig().WithMeshSize(4, 4)
	s, err := NewScorpioBare(opt)
	if err != nil {
		t.Fatal(err)
	}
	const line = uint64(0x5000)
	tiles := make([]*tile.Tile, 16)
	drivers := make([]*tileDriver, 16)
	for n := 0; n < 16; n++ {
		tiles[n] = tile.New(n, tile.DefaultConfig(), s.L2s[n])
		d := &tileDriver{t: tiles[n]}
		tiles[n].OnComplete = d.onComplete
		drivers[n] = d
		s.Kernel.Register(tiles[n])
		s.Kernel.Register(d)
	}
	// Core 3 writes the line twice; core 12 reads it twice (second read
	// after an intervening write by core 7); core 5 fetches it as an
	// instruction line.
	drivers[3].script = []tileOp{
		{port: tile.Data, addr: line, write: true, value: 11},
		{port: tile.Data, addr: line, write: true, value: 22},
	}
	drivers[12].script = []tileOp{
		{port: tile.Data, addr: line},
		{port: tile.Data, addr: line},
	}
	drivers[7].script = []tileOp{
		{port: tile.Data, addr: line, write: true, value: 33},
	}
	drivers[5].script = []tileOp{
		{port: tile.Instr, addr: line},
	}
	done := func() bool {
		for _, d := range drivers {
			if d.next < len(d.script) {
				return false
			}
		}
		return true
	}
	if !s.Kernel.RunUntil(done, 100_000) {
		t.Fatal("full-stack run did not finish")
	}
	if err := s.Net.VerifyGlobalOrder(); err != nil {
		t.Fatal(err)
	}
	// Every load observed one of the legally written values.
	legal := map[uint64]bool{0: true, 11: true, 22: true, 33: true}
	for n, d := range drivers {
		for _, c := range d.Results {
			if !c.Write && !legal[c.Value] {
				t.Fatalf("core %d loaded impossible value %d", n, c.Value)
			}
		}
	}
	// Monotone observation at core 12: its two reads must not go backwards
	// through 11 -> 22 (33's order vs 22 is unconstrained, but 11 after 22
	// would violate coherence).
	r12 := drivers[12].Results
	if len(r12) == 2 && r12[0].Value == 22 && r12[1].Value == 11 {
		t.Fatal("core 12 observed the write order backwards")
	}
	// Inclusion: if any tile's L1 has the line, its L2 must have it too.
	for n, tl := range tiles {
		if tl.L1D().Present(line) || tl.L1I().Present(line) {
			if s.L2s[n].LineState(line) == 0 { // coherence.Invalid
				t.Fatalf("tile %d: L1 holds the line but the L2 does not (inclusion broken)", n)
			}
		}
	}
}

func TestScorpioWithL1Tiles(t *testing.T) {
	prof, err := trace.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(prof)
	opt.Core = core.DefaultConfig().WithMeshSize(4, 4)
	opt.UseL1 = true
	opt.WorkPerCore, opt.WarmupPerCore = 60, 100
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Service.Count != 16*60 {
		t.Fatalf("measured %d accesses", res.Service.Count)
	}
	if len(s.Tiles) != 16 {
		t.Fatal("tiles not attached")
	}
	var l1Hits uint64
	for _, tl := range s.Tiles {
		l1Hits += tl.Stats.L1Hits
	}
	if l1Hits == 0 {
		t.Fatal("the L1 layer never hit — not in the path")
	}
	t.Logf("with L1s: service latency %.1f cycles, %d L1 hits", res.Service.Value(), l1Hits)
}
