package coherence

import (
	"sync"

	"scorpio/internal/noc"
)

// Msg is one protocol message as a single heap object: the network packet
// plus the protocol's info T. Its Payload points back at the Msg, so a
// receiver reaches the info with InfoOf.
type Msg[T any] struct {
	noc.Packet
	Info T
	next *Msg[T] // free-list link while pooled
}

// Pool is one machine's free list of messages. Every controller builds its
// messages from it, and every NIC hands a delivered packet back once
// nothing reads it any more: a unicast packet at its one delivery, a
// broadcast at the last of its deliveries (noc.Packet.Delivered). The
// message's builder and its last deliverer may run on different kernel
// workers, so a mutex guards the list. Every message on the list was built
// by the machine, so the list never holds more than the machine's peak
// number of messages in flight. A nil *Pool allocates every message and
// keeps none.
type Pool[T any] struct {
	mu   sync.Mutex
	free *Msg[T]
}

// New returns a message holding p and info, equal to a freshly allocated
// one whether or not it was reused.
func (pl *Pool[T]) New(p noc.Packet, info T) *Msg[T] {
	var m *Msg[T]
	if pl != nil {
		pl.mu.Lock()
		if m = pl.free; m != nil {
			pl.free = m.next
		}
		pl.mu.Unlock()
	}
	if m == nil {
		m = new(Msg[T])
	}
	*m = Msg[T]{Packet: p, Info: info}
	m.Payload = m
	return m
}

// Recycle takes back a delivered packet built by a Pool[T] and ignores any
// other packet. The packet is poisoned with Kind -1, so a stale reader hits
// its protocol's unknown-kind panic.
func (pl *Pool[T]) Recycle(p *noc.Packet) {
	m, ok := p.Payload.(*Msg[T])
	if !ok {
		return
	}
	*m = Msg[T]{Packet: noc.Packet{Kind: -1}}
	if pl == nil {
		return
	}
	pl.mu.Lock()
	m.next, pl.free = pl.free, m
	pl.mu.Unlock()
}

// InfoOf returns the info of a packet built as a Msg[T], or nil.
func InfoOf[T any](p *noc.Packet) *T {
	if m, ok := p.Payload.(*Msg[T]); ok {
		return &m.Info
	}
	return nil
}
