package coherence

import "scorpio/internal/noc"

// Msg is one protocol message as a single heap object: the network packet
// plus the protocol's info T. Its Payload points back at the Msg, so a
// receiver reaches the info with InfoOf.
type Msg[T any] struct {
	noc.Packet
	Info T
	next *Msg[T] // free-list link while pooled
}

// poolCap bounds each free list. A SCORPIO tile receives memory data it
// never sends back, so an unbounded list would grow for the whole run.
const poolCap = 64

// Pool is one node's free list of messages. The node's controllers build
// their messages from it, and the node's NIC hands back every unicast
// packet it delivers once nothing reads it any more: a unicast message has
// exactly one last holder. Broadcasts are never recycled, since every node
// shares the one object. Only the node's scheduling unit touches its pool,
// so pools need no locking. A nil *Pool allocates every message and keeps
// none.
type Pool[T any] struct {
	free *Msg[T]
	n    int
}

// New returns a message holding p and info, equal to a freshly allocated
// one whether or not it was reused.
func (pl *Pool[T]) New(p noc.Packet, info T) *Msg[T] {
	var m *Msg[T]
	if pl != nil && pl.free != nil {
		m, pl.free = pl.free, pl.free.next
		pl.n--
	} else {
		m = new(Msg[T])
	}
	*m = Msg[T]{Packet: p, Info: info}
	m.Payload = m
	return m
}

// Recycle takes back a delivered packet built by some node's Pool[T] and
// ignores any other packet. The packet is poisoned with Kind -1, so a
// stale reader hits its protocol's unknown-kind panic; past the cap it is
// left to the garbage collector.
func (pl *Pool[T]) Recycle(p *noc.Packet) {
	m, ok := p.Payload.(*Msg[T])
	if !ok {
		return
	}
	*m = Msg[T]{Packet: noc.Packet{Kind: -1}}
	if pl == nil || pl.n >= poolCap {
		return
	}
	m.next, pl.free = pl.free, m
	pl.n++
}

// InfoOf returns the info of a packet built as a Msg[T], or nil.
func InfoOf[T any](p *noc.Packet) *T {
	if m, ok := p.Payload.(*Msg[T]); ok {
		return &m.Info
	}
	return nil
}
