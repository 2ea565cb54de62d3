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

func TestPoolCap(t *testing.T) {
	pool := &Pool[RespInfo]{}
	var none *Pool[RespInfo]
	msgs := make([]*Msg[RespInfo], poolCap+10)
	for i := range msgs {
		msgs[i] = none.New(noc.Packet{}, RespInfo{})
	}
	for _, m := range msgs {
		pool.Recycle(&m.Packet)
	}
	if pool.n != poolCap {
		t.Fatalf("pool holds %d messages, cap %d", pool.n, poolCap)
	}
	kept := map[*Msg[RespInfo]]bool{}
	for _, m := range msgs[:poolCap] {
		kept[m] = true
	}
	for i := 0; i < poolCap; i++ {
		if m := pool.New(noc.Packet{}, RespInfo{}); !kept[m] {
			t.Fatalf("reuse %d returned a message the pool never kept", i)
		}
	}
	if m := pool.New(noc.Packet{}, RespInfo{}); kept[m] {
		t.Fatal("a drained pool must allocate")
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
