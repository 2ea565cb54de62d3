package coherence

import (
	"reflect"
	"testing"

	"scorpio/internal/noc"
)

func TestPoolReusesLIFO(t *testing.T) {
	var pool Pool[RespInfo]
	a := pool.New(noc.Packet{ID: 1}, RespInfo{})
	b := pool.New(noc.Packet{ID: 2}, RespInfo{})
	pool.Recycle(&a.Packet)
	pool.Recycle(&b.Packet)
	if got := pool.New(noc.Packet{ID: 3}, RespInfo{}); got != b {
		t.Fatal("the last message recycled must be the first reused")
	}
	if got := pool.New(noc.Packet{ID: 4}, RespInfo{}); got != a {
		t.Fatal("the first message recycled must be reused second")
	}
	if got := pool.New(noc.Packet{ID: 5}, RespInfo{}); got == a || got == b {
		t.Fatal("an empty pool must allocate")
	}
}

// TestPoolCarvesBlocks: an empty pool makes poolBlock messages at once, so
// filling it to that many in flight allocates once.
func TestPoolCarvesBlocks(t *testing.T) {
	const runs = 10
	pools := make([]Pool[RespInfo], runs+1)
	msgs := make([]*Msg[RespInfo], poolBlock)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for i := range msgs {
			msgs[i] = pools[next].New(noc.Packet{ID: uint64(i)}, RespInfo{})
		}
		next++
	})
	if allocs != 1 {
		t.Fatalf("%d messages from an empty pool take %.1f allocations, want 1", poolBlock, allocs)
	}
	for i, m := range msgs {
		if m.ID != uint64(i) || m.Payload != m {
			t.Fatalf("message %d holds ID %d, payload %p; want %d and itself", i, m.ID, m.Payload, i)
		}
	}
}

func TestPoolReusedMessageEqualsFresh(t *testing.T) {
	var pool Pool[RespInfo]
	old := pool.New(noc.Packet{ID: 1, VNet: noc.UOResp, Src: 3, Dst: 4, Kind: int(Data), Addr: 0x40, ReqID: 9,
		Flits: 3, InjectCycle: 17, NetworkEntry: 18, ArriveCycle: 30},
		RespInfo{Value: 0xbeef, ServedByCache: true, ReqArrive: 5, ReqOrdered: 9, Service: 10, RespSent: 20})
	pool.Recycle(&old.Packet)

	p := noc.Packet{ID: 2, VNet: noc.UOResp, Src: 1, Dst: 2, Kind: int(WBAck), ReqID: 3, Flits: 1}
	reused := pool.New(p, RespInfo{})
	if reused != old {
		t.Fatal("the recycled message was not reused")
	}
	var none *Pool[RespInfo]
	fresh := none.New(p, RespInfo{})
	if reused.Payload != reused {
		t.Fatal("a reused message's payload must point back at it")
	}
	if !reflect.DeepEqual(*reused, *fresh) {
		t.Fatalf("reused message differs from a fresh one:\nreused: %+v\nfresh:  %+v", *reused, *fresh)
	}
}

func TestPoolRecyclePoisonsPacket(t *testing.T) {
	var pool Pool[RespInfo]
	m := pool.New(noc.Packet{ID: 7, Kind: int(Data)}, RespInfo{Value: 1})
	pool.Recycle(&m.Packet)
	if m.Kind != -1 || m.ID != 0 || m.Payload != nil || m.Info != (RespInfo{}) {
		t.Fatalf("a recycled packet must read as poisoned, got %+v", m.Packet)
	}
}

// TestPoolConcurrentBuildAndRecycle runs the machine pool's two sides on
// different goroutines, as a message's builder and its last deliverer run
// on different kernel workers: one builds messages, the other recycles
// them. Every recycled message must be reused, so the messages ever built
// number no more than those out of the pool at once, and at the end the
// free list must hold each of them exactly once.
func TestPoolConcurrentBuildAndRecycle(t *testing.T) {
	const builds, inFlight = 20000, 8
	pool := &Pool[RespInfo]{}
	sent := make(chan *Msg[RespInfo], inFlight)
	done := make(chan struct{})
	go func() {
		defer close(done)
		want := uint64(1)
		for m := range sent {
			if m.ID != want || m.Info.Value != want || m.Payload != m {
				t.Errorf("message %d arrived as ID %d value %d: handed out twice", want, m.ID, m.Info.Value)
				for range sent { // let the builder finish
				}
				return
			}
			want++
			pool.Recycle(&m.Packet)
		}
	}()
	built := map[*Msg[RespInfo]]bool{}
	for id := uint64(1); id <= builds; id++ {
		m := pool.New(noc.Packet{ID: id, Kind: int(Data)}, RespInfo{Value: id})
		built[m] = true
		sent <- m
	}
	close(sent)
	<-done
	// At most inFlight messages wait in the channel, one is being built and
	// one recycled; a pool that lost a recycled message would build more.
	if len(built) > inFlight+2 {
		t.Fatalf("%d builds made %d distinct messages, want at most %d", builds, len(built), inFlight+2)
	}
	listed := map[*Msg[RespInfo]]bool{}
	for m := pool.free; m != nil; m = m.next {
		if listed[m] {
			t.Fatal("the free list holds a message twice")
		}
		if !built[m] {
			t.Fatal("the free list holds a message the pool never built")
		}
		listed[m] = true
	}
	if len(listed) != len(built) {
		t.Fatalf("the free list holds %d of the %d messages built", len(listed), len(built))
	}
}

func TestNilPool(t *testing.T) {
	var pool *Pool[RespInfo]
	a := pool.New(noc.Packet{ID: 1}, RespInfo{Value: 2})
	pool.Recycle(&a.Packet)
	if a.Kind != -1 {
		t.Fatal("a nil pool must still poison what it is handed")
	}
	if b := pool.New(noc.Packet{ID: 3}, RespInfo{}); b == a {
		t.Fatal("a nil pool must not keep messages")
	}
}

func TestInfoOfForeignPayload(t *testing.T) {
	var pool Pool[RespInfo]
	m := pool.New(noc.Packet{}, RespInfo{Value: 5})
	if ri := InfoOf[RespInfo](&m.Packet); ri == nil || ri.Value != 5 {
		t.Fatalf("InfoOf = %v, want the message's info", ri)
	}
	type other struct{ Value uint64 }
	foreign := []*noc.Packet{
		{},                             // no payload
		{Payload: &RespInfo{Value: 5}}, // a bare info, not a message
		&(*Pool[other])(nil).New(noc.Packet{}, other{5}).Packet, // another protocol's message
	}
	for i, p := range foreign {
		if ri := InfoOf[RespInfo](p); ri != nil {
			t.Fatalf("packet %d: InfoOf = %+v for a foreign payload, want nil", i, ri)
		}
		kind := p.Kind
		pool.Recycle(p)
		if p.Kind != kind {
			t.Fatalf("packet %d: recycling a foreign packet must leave it alone", i)
		}
	}
}
