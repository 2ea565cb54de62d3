package noc

import (
	"fmt"
	"strings"
	"testing"

	"scorpio/internal/obs"
)

// terminalMesh builds a 2×2 mesh whose links the tests drive by hand; no
// router runs, so credits return only when a test sends them.
func terminalMesh(t *testing.T, cfg Config) *Mesh {
	t.Helper()
	cfg.Width, cfg.Height = 2, 2
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTerminalSerializesMultiFlitPacket sends a 3-flit UO-RESP packet into a
// VC two credits deep: the head and first body flit leave on consecutive
// cycles, the tail waits for the router's credit, and Continue hands the
// packet back only once the tail is out.
func TestTerminalSerializesMultiFlitPacket(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UORespBufDepth = 2
	m := terminalMesh(t, cfg)
	term := NewTerminal(m, 0)
	tr := obs.NewTracer(16)
	term.SetTracer(tr)
	inj := m.InjectLink(0)
	p := &Packet{ID: 1, VNet: UOResp, Src: 0, Dst: 3, Flits: 3}
	sent := func(cycle uint64, want int) {
		t.Helper()
		f := inj.Flit(cycle + 1)
		switch {
		case want < 0 && f != nil:
			t.Fatalf("cycle %d sent flit %d, want none", cycle, f.Seq)
		case want >= 0 && (f == nil || f.Pkt != p || f.Seq != want):
			t.Fatalf("cycle %d sent %v, want flit %d", cycle, f, want)
		}
	}
	if !term.Start(p, 1) || !term.Busy() || p.NetworkEntry != 1 {
		t.Fatalf("Start: busy=%v NetworkEntry=%d", term.Busy(), p.NetworkEntry)
	}
	sent(1, 0)
	if term.Continue(2) != nil {
		t.Fatal("packet returned before its tail")
	}
	sent(2, 1)
	if term.Continue(3) != nil {
		t.Fatal("packet returned before its tail")
	}
	sent(3, -1)
	inj.SendCredit(Credit{VNet: UOResp, VC: 0}, 3)
	term.TakeCredits(4)
	if term.Continue(4) != p || term.Busy() {
		t.Fatal("Continue must return the packet with its tail and go idle")
	}
	sent(4, 2)
	injects := 0
	for _, e := range tr.Events() {
		if e.Type == obs.EvInject {
			injects++
		}
	}
	if injects != 1 {
		t.Fatalf("recorded %d inject events, want 1", injects)
	}
}

// TestTerminalHoldsSameSIDBroadcasts offers five GO-REQ broadcasts of one SID
// with no credits returned: the SID tracker admits only the first, so Start
// never reaches the reserved VC and never panics.
func TestTerminalHoldsSameSIDBroadcasts(t *testing.T) {
	m := terminalMesh(t, DefaultConfig())
	term := NewTerminal(m, 2)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Start panicked: %v", r)
		}
	}()
	started := 0
	for i := 0; i < 5; i++ {
		p := &Packet{ID: uint64(i + 1), VNet: GOReq, Src: 2, SID: 2, SrcSeq: uint64(i), Broadcast: true, Flits: 1}
		if term.Start(p, uint64(i)) {
			started++
		}
	}
	if started != 1 {
		t.Fatalf("%d same-SID broadcasts sent without a credit back, want 1", started)
	}
}

// TestTerminalAssemblyChecksFlitCount assembles two whole 3-flit packets on
// one VC, then a tail that arrives after too few flits: that one must panic
// naming the node.
func TestTerminalAssemblyChecksFlitCount(t *testing.T) {
	m := terminalMesh(t, DefaultConfig())
	term := NewTerminal(m, 3)
	for id := uint64(1); id <= 2; id++ {
		whole := &Packet{ID: id, VNet: UOResp, Src: 0, Dst: 3, Flits: 3}
		for seq := 0; seq < 3; seq++ {
			f := NewFlit(whole, seq, 1)
			if got := term.Assemble(&f, 10*id+uint64(seq)); (got != nil) != (seq == 2) {
				t.Fatalf("packet %d flit %d: Assemble returned %v", id, seq, got)
			}
		}
		if whole.ArriveCycle != 10*id+2 {
			t.Fatalf("packet %d: ArriveCycle %d, want the tail's cycle %d", id, whole.ArriveCycle, 10*id+2)
		}
	}
	short := &Packet{ID: 3, VNet: UOResp, Src: 0, Dst: 3, Flits: 3}
	head, tail := NewFlit(short, 0, 1), NewFlit(short, 2, 1)
	term.Assemble(&head, 30)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "node 3") {
			t.Fatalf("short packet: panic %v, want one naming node 3", r)
		}
	}()
	term.Assemble(&tail, 31)
}
