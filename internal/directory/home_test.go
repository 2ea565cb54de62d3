package directory

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"scorpio/internal/coherence"
	"scorpio/internal/noc"
)

// sent is one packet a home handed to its NIC, or to its own L2 as an HT
// local probe, with the fields the differential test compares.
type sent struct {
	cycle                   uint64
	local                   bool
	kind                    Kind
	vnet                    noc.VNet
	src, dst, flits         int
	broadcast               bool
	addr, reqID, id, inject uint64
	info                    Info
}

func record(p *noc.Packet, cycle uint64, local bool) sent {
	s := sent{cycle: cycle, local: local, kind: Kind(p.Kind), vnet: p.VNet, src: p.Src, dst: p.Dst,
		flits: p.Flits, broadcast: p.Broadcast, addr: p.Addr, reqID: p.ReqID, id: p.ID, inject: p.InjectCycle}
	if info := coherence.InfoOf[Info](p); info != nil {
		s.info = *info
	}
	return s
}

// recorder is the NIC and co-located L2 of one home under the differential
// test: it logs every packet it takes, and refuses every send while *busy.
type recorder struct {
	clock *uint64
	busy  *bool
	log   []sent
}

func (r *recorder) SendRequest(p *noc.Packet) bool  { return r.take(p) }
func (r *recorder) SendResponse(p *noc.Packet) bool { return r.take(p) }

func (r *recorder) take(p *noc.Packet) bool {
	if *r.busy {
		return false
	}
	r.log = append(r.log, record(p, *r.clock, false))
	return true
}

func (r *recorder) probe(p *noc.Packet, cycle uint64) bool {
	r.log = append(r.log, record(p, cycle, true))
	return true
}

// homePair drives the table-based home and the previous design's reference
// (homeref_test.go) with identical inputs and compares what they send.
type homePair struct {
	t         *testing.T
	name      string // the run, for failure messages
	home      *Home
	ref       *refHome
	got, want *recorder
	checked   int
	cycle     uint64
	busy      bool // the NICs refuse every send this cycle

	// Coverage of the cases the test must reach, read from the reference.
	reordered  bool // a new timer landed before a kept timer due in its cycle
	earlyTaken bool // a PutM consumed writeback data that came first
	lateTaken  bool // writeback data completed an already processed PutM
	drained    bool // parked memory reads were served after writeback data
	grewBusy   bool // the table grew while timers were pending
}

const pairNode = 2

func newHomePair(t *testing.T, cfg HomeConfig, name string) *homePair {
	hp := &homePair{t: t, name: name}
	hp.got = &recorder{clock: &hp.cycle, busy: &hp.busy}
	hp.want = &recorder{clock: &hp.cycle, busy: &hp.busy}
	hp.home = NewHome(pairNode, cfg, hp.got, new(idCounter), nil)
	hp.ref = newRefHome(pairNode, cfg, hp.want, new(idCounter), nil)
	hp.home.LocalProbe, hp.ref.LocalProbe = hp.got.probe, hp.want.probe
	return hp
}

func (hp *homePair) request(kind Kind, src int, addr, reqID uint64) {
	p := noc.Packet{VNet: noc.GOReq, Src: src, SID: src, Dst: pairNode, Flits: 1,
		Kind: int(kind), Addr: addr, ReqID: reqID, InjectCycle: hp.cycle}
	a, b := p, p
	size, timers := len(hp.home.tab), len(hp.home.timers)
	hp.home.Request(&a, hp.cycle, hp.cycle)
	hp.ref.Request(&b, hp.cycle, hp.cycle)
	if len(hp.home.tab) != size && size > 0 && timers > 0 {
		hp.grewBusy = true
	}
}

func (hp *homePair) wbData(src int, addr, reqID uint64) {
	if l := hp.ref.lines[addr]; l != nil && l.expectWB == reqID && reqID != 0 {
		hp.lateTaken = true
	}
	p := noc.Packet{VNet: noc.UOResp, Src: src, Dst: pairNode, Flits: 3, Kind: int(WBData), Addr: addr, ReqID: reqID}
	a, b := p, p
	_, parked0 := hp.refWaiting()
	hp.home.WBDataArrived(&a, hp.cycle)
	hp.ref.WBDataArrived(&b, hp.cycle)
	_, parked1 := hp.refWaiting()
	hp.drained = hp.drained || parked1 < parked0
}

func (hp *homePair) done(src int, addr uint64) {
	p := noc.Packet{VNet: noc.UOResp, Src: src, Dst: pairNode, Flits: 1, Kind: int(Done), Addr: addr}
	a, b := p, p
	hp.home.DoneArrived(&a, hp.cycle)
	hp.ref.DoneArrived(&b, hp.cycle)
}

// refWaiting counts the reference's early writebacks and parked reads.
func (hp *homePair) refWaiting() (early, parked int) {
	for _, l := range hp.ref.lines {
		early += len(l.wbEarly)
		parked += len(l.parked)
	}
	return early, parked
}

// evaluate runs both homes' Evaluate and Commit for the current cycle and
// notes which timer, writeback and parking cases it reached.
func (hp *homePair) evaluate() {
	before := append([]refTimer(nil), hp.ref.timers...)
	early0, parked0 := hp.refWaiting()
	hp.home.Evaluate(hp.cycle)
	hp.ref.Evaluate(hp.cycle)
	hp.home.Commit(hp.cycle)
	hp.ref.Commit(hp.cycle)
	early1, parked1 := hp.refWaiting()
	hp.earlyTaken = hp.earlyTaken || early1 < early0
	hp.drained = hp.drained || parked1 < parked0
	// A timer is new if the list before Evaluate did not hold it; it was
	// made by a fired one. Today's order puts it ahead of the kept timers
	// that came after the fired one.
	old := map[refTimer]bool{}
	for _, t := range before {
		old[t] = true
	}
	for i, t := range hp.ref.timers {
		if old[t] {
			continue
		}
		for _, u := range hp.ref.timers[i+1:] {
			if old[u] && u.at == t.at {
				hp.reordered = true
			}
		}
	}
	hp.compare()
}

// compare checks every packet sent since the last call, the stats and the
// idle and next-event answers.
func (hp *homePair) compare() {
	hp.t.Helper()
	got, want := hp.got.log, hp.want.log
	for i := hp.checked; i < max(len(got), len(want)); i++ {
		switch {
		case i >= len(got):
			hp.t.Fatalf("%s, cycle %d: home missed send %d: %+v", hp.name, hp.cycle, i, want[i])
		case i >= len(want):
			hp.t.Fatalf("%s, cycle %d: home sent an extra packet %d: %+v", hp.name, hp.cycle, i, got[i])
		case got[i] != want[i]:
			hp.t.Fatalf("%s, cycle %d: send %d differs:\n got %+v\nwant %+v", hp.name, hp.cycle, i, got[i], want[i])
		}
	}
	hp.checked = len(got)
	if hp.home.Stats != hp.ref.Stats {
		hp.t.Fatalf("%s, cycle %d: stats %+v, want %+v", hp.name, hp.cycle, hp.home.Stats, hp.ref.Stats)
	}
	if g, w := hp.home.Idle(), hp.ref.Idle(); g != w {
		hp.t.Fatalf("%s, cycle %d: Idle %v, want %v", hp.name, hp.cycle, g, w)
	}
	if g, w := hp.home.NextEventCycle(hp.cycle), hp.ref.NextEventCycle(hp.cycle); g != w {
		hp.t.Fatalf("%s, cycle %d: NextEventCycle %d, want %d", hp.name, hp.cycle, g, w)
	}
}

// delivery is one message the test scheduled for a later cycle; late ones
// arrive after the homes' Evaluate, as a NIC delivers them.
type delivery struct {
	at          uint64
	kind        Kind
	src         int
	addr, reqID uint64
	late        bool
}

// TestHomeMatchesReference drives the table-based home and the reference
// with the same random request, Done and writeback streams, for both
// variants, at 16 nodes and at 100 (two sharer words), with the default
// directory cache and with 16 entries (so hits and misses mix their
// latencies), and requires the same packets, stats and idle answers every
// cycle. A scripted prefix makes a timer fire and create one due in the
// cycle of a timer kept after it; the random phase mixes PutM/WBData races
// in both orders, reads parked on writeback data, colliding writeback
// reqIDs on different lines, refused sends, and a stream of new lines that
// grows the table while timers are pending.
func TestHomeMatchesReference(t *testing.T) {
	for _, v := range []Variant{LPD, HT} {
		for _, nodes := range []int{16, 100} {
			t.Run(fmt.Sprintf("%s/%d", v, nodes), func(t *testing.T) {
				var cover homePair
				for _, small := range []bool{false, true} {
					cfg := LPDConfig(nodes)
					if v == HT {
						cfg = HTConfig(nodes)
					}
					if small {
						cfg.TotalDirCacheBytes = nodes * cfg.EntryBytes * 16
					}
					for seed := uint64(1); seed <= 3; seed++ {
						hp := runHomePair(t, cfg, seed)
						cover.reordered = cover.reordered || hp.reordered
						cover.earlyTaken = cover.earlyTaken || hp.earlyTaken
						cover.lateTaken = cover.lateTaken || hp.lateTaken
						cover.drained = cover.drained || hp.drained
						cover.grewBusy = cover.grewBusy || hp.grewBusy
					}
				}
				for name, ok := range map[string]bool{
					"a new timer due with a later kept one":  cover.reordered,
					"early writeback data taken by its PutM": cover.earlyTaken,
					"writeback data after its PutM":          cover.lateTaken,
					"parked reads drained":                   cover.drained,
					"table growth with timers pending":       cover.grewBusy,
				} {
					if !ok {
						t.Errorf("the sequences never reached: %s", name)
					}
				}
			})
		}
	}
}

func runHomePair(t *testing.T, cfg HomeConfig, seed uint64) *homePair {
	hp := newHomePair(t, cfg, fmt.Sprintf("dircache %d B, seed %d", cfg.TotalDirCacheBytes, seed))
	rng := rand.New(rand.NewPCG(seed, uint64(cfg.Nodes)))
	lineAt := func(k int) uint64 { return uint64(pairNode + k*cfg.Nodes) }
	hot := []uint64{lineAt(0), lineAt(1), lineAt(2), lineAt(3), lineAt(4), lineAt(5)}
	addrs := append([]uint64(nil), hot...)

	// Scripted: a stale PutM's timer fires at cycle 10 and unblocks a
	// queued GetS, whose timer is due at 20, the cycle of a GetS to another
	// line dispatched at 10 before the Evaluate.
	a, b := lineAt(50), lineAt(51)
	addrs = append(addrs, a, b)
	hp.request(ReqPutM, 5, a, 1)
	hp.request(ReqGetS, 3, a, 2)
	for ; hp.cycle < 10; hp.cycle++ {
		hp.evaluate()
	}
	hp.request(ReqGetS, 4, b, 3)
	hp.evaluate()
	if !hp.reordered {
		t.Fatalf("%s: the scripted prefix did not put a new timer ahead of a kept one due in its cycle", hp.name)
	}
	hp.cycle++

	// pending holds the scheduled deliveries; held the writeback data that
	// leaves once the reference processed its PutM and waits for it.
	var pending, held []delivery
	doneDue := map[uint64]bool{}
	schedule := func(d delivery) {
		if d.kind == Done {
			doneDue[d.addr] = true
		}
		pending = append(pending, d)
	}
	deliver := func(late bool) {
		kept := pending[:0]
		for _, d := range pending {
			if d.at > hp.cycle || d.late != late {
				kept = append(kept, d)
				continue
			}
			switch d.kind {
			case ReqPutM, ReqGetS, ReqGetX:
				hp.request(d.kind, d.src, d.addr, d.reqID)
			case WBData:
				hp.wbData(d.src, d.addr, d.reqID)
			case Done:
				delete(doneDue, d.addr)
				hp.done(d.src, d.addr)
			}
		}
		pending = kept
	}
	// draw makes one random request to a hot line, or to a new line.
	cold := 100
	draw := func(late bool) {
		addr := hot[rng.IntN(len(hot))]
		if rng.IntN(4) == 0 {
			addr = lineAt(cold)
			cold++
			addrs = append(addrs, addr)
		}
		src := rng.IntN(cfg.Nodes)
		reqID := 1 + uint64(rng.IntN(3))
		switch r := rng.IntN(100); {
		case r < 40:
			schedule(delivery{at: hp.cycle, kind: ReqGetS, src: src, addr: addr, reqID: reqID, late: late})
		case r < 75:
			schedule(delivery{at: hp.cycle, kind: ReqGetX, src: src, addr: addr, reqID: reqID, late: late})
		default:
			if l := hp.ref.lines[addr]; l != nil && l.owner >= 0 && rng.IntN(4) != 0 {
				src = l.owner
			}
			putm := delivery{at: hp.cycle, kind: ReqPutM, src: src, addr: addr, reqID: reqID, late: late}
			data := delivery{at: hp.cycle, kind: WBData, src: src, addr: addr, reqID: reqID, late: rng.IntN(2) == 0}
			schedule(putm)
			switch r := rng.IntN(20); {
			case r == 0: // the data never comes
			case r < 10: // the data comes first
				putm.at += uint64(rng.IntN(60))
				schedule(data)
			default: // the data follows the PutM's processing
				held = append(held, data)
			}
		}
	}
	const active, drain = 4000, 1500
	for ; hp.cycle < active+drain; hp.cycle++ {
		hp.busy = rng.IntN(12) == 0
		deliver(false)
		if hp.cycle < active && rng.IntN(10) == 0 {
			draw(false)
		}
		hp.evaluate()
		deliver(true)
		if hp.cycle < active && rng.IntN(10) == 0 {
			draw(true)
		}
		hp.compare()
		kept := held[:0]
		for _, d := range held {
			if l := hp.ref.lines[d.addr]; l != nil && l.expectWB == d.reqID {
				d.at = hp.cycle + 1 + uint64(rng.IntN(300))
				schedule(d)
			} else {
				kept = append(kept, d)
			}
		}
		held = kept
		// A requester confirms a processed GetS or GetX with Done: the
		// reference's line is busy and has no timer left. One whose read
		// waits for writeback data is usually let wait for it.
		for _, addr := range addrs {
			l := hp.ref.lines[addr]
			if l == nil || !l.busy || doneDue[addr] || rng.IntN(2) != 0 {
				continue
			}
			if len(l.parked) > 0 && rng.IntN(5) != 0 {
				continue
			}
			timed := false
			for _, tm := range hp.ref.timers {
				timed = timed || tm.l == l
			}
			if !timed {
				schedule(delivery{at: hp.cycle + 1 + uint64(rng.IntN(20)), kind: Done, src: l.owner, addr: addr, late: rng.IntN(2) == 0})
			}
		}
	}
	return hp
}

// poolNIC accepts every send and hands the packet straight back to the
// machine's pool, as a NIC does at a unicast delivery.
type poolNIC struct{ pool *coherence.Pool[Info] }

func (n poolNIC) SendRequest(p *noc.Packet) bool  { n.pool.Recycle(p); return true }
func (n poolNIC) SendResponse(p *noc.Packet) bool { n.pool.Recycle(p); return true }

// TestHomeSeenLinesAllocateNothing: once a home has seen its lines, serving
// transactions on them — queued requests, forwards or probes, upgrades,
// writebacks whose data comes before or after the PutM, and reads parked
// on that data — allocates nothing.
func TestHomeSeenLinesAllocateNothing(t *testing.T) {
	for _, v := range []Variant{LPD, HT} {
		cfg := LPDConfig(16)
		if v == HT {
			cfg = HTConfig(16)
		}
		pool := new(coherence.Pool[Info])
		h := NewHome(pairNode, cfg, poolNIC{pool}, new(idCounter), pool)
		h.LocalProbe = func(*noc.Packet, uint64) bool { return true }
		var cycle uint64
		var p noc.Packet
		step := func(n int) {
			for ; n > 0; n-- {
				h.Evaluate(cycle)
				h.Commit(cycle)
				cycle++
			}
		}
		send := func(kind Kind, src int, addr, reqID uint64) {
			p = noc.Packet{Src: src, Kind: int(kind), Addr: addr, ReqID: reqID}
			switch kind {
			case WBData:
				h.WBDataArrived(&p, cycle)
			case Done:
				h.DoneArrived(&p, cycle)
			default:
				h.Request(&p, cycle, cycle)
			}
		}
		round := func() {
			for k := 0; k < 8; k++ {
				addr := uint64(pairNode + 16*k)
				send(ReqGetX, 3, addr, 1) // memory serves; 3 owns
				send(ReqGetS, 5, addr, 2) // queued behind it
				step(20)
				send(Done, 3, addr, 1)
				step(20) // the GetS is forwarded or probed
				send(Done, 5, addr, 2)
				send(ReqGetX, 3, addr, 3) // an upgrade by the owner
				step(20)
				send(Done, 3, addr, 3)
				if k%2 == 0 {
					send(WBData, 3, addr, 4) // the data comes first
					send(ReqPutM, 3, addr, 4)
					step(120)
				} else {
					send(ReqPutM, 3, addr, 4)
					step(20)
					send(ReqGetS, 7, addr, 5) // parked on the data
					step(20)
					send(WBData, 3, addr, 4)
					step(120)
					send(Done, 7, addr, 5)
				}
			}
		}
		round()
		round()
		if n := testing.AllocsPerRun(5, round); n != 0 {
			t.Errorf("%s: a round over seen lines allocates %.1f times, want 0", v, n)
		}
	}
}
