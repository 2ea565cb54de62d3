package noc

import (
	"fmt"
	"sync/atomic"
)

// Packet is one message on the main network. GO-REQ packets are single-flit
// and may be broadcast; UO-RESP packets are unicast and may span several
// flits (cache-line data).
type Packet struct {
	// ID is unique per injected packet (assigned by the mesh).
	ID uint64
	// VNet is the message class the packet travels on.
	VNet VNet
	// Src is the injecting node.
	Src int
	// Dst is the destination node for unicast packets; ignored for broadcast.
	Dst int
	// Broadcast requests delivery to every node (including the source, whose
	// copy is looped back locally by the NIC).
	Broadcast bool
	// left counts a broadcast's deliveries still to come (ExpectDeliveries,
	// Delivered). It sits in the padding after Broadcast, and is a plain
	// int32 updated with sync/atomic because packets are copied by value.
	left int32
	// SID is the source ID used for global ordering; GO-REQ only.
	SID int
	// SrcSeq numbers the source's ordered requests (0, 1, 2, …). Together
	// with SID it identifies the exact occurrence a NIC is waiting for, so
	// the reserved VC can never be claimed by a later request from the same
	// source (which would deadlock the expected one behind it).
	SrcSeq uint64
	// Flits is the packet length in flits.
	Flits int
	// Kind is an opaque protocol-level message type (defined by the
	// coherence packages); the network does not interpret it.
	Kind int
	// Addr is the cache-line address the message concerns, if any.
	Addr uint64
	// ReqID lets protocol layers match responses to outstanding requests.
	ReqID uint64
	// Payload carries arbitrary protocol state; the network never reads it.
	Payload any

	// Timestamps for latency accounting, filled by the network layers.
	InjectCycle  uint64 // handed to the NIC by the agent
	NetworkEntry uint64 // first flit left the source NIC into the router
	ArriveCycle  uint64 // last flit reached the destination NIC buffers
}

// ExpectDeliveries sets how many deliveries a broadcast will see: the
// sender calls it once, when it accepts the packet, before any copy leaves.
func (p *Packet) ExpectDeliveries(n int) { p.left = int32(n) }

// Delivered records one delivery of p to an agent and reports whether it
// was the last, so the caller may recycle the packet: always for a unicast
// packet, and for a broadcast only at the delivery that brings its
// ExpectDeliveries count to zero. Every node delivers a broadcast after
// its own copy arrived, so at the last delivery no router, link or NIC
// still holds it. Concurrent calls from different kernel workers are safe;
// exactly one of them sees true.
func (p *Packet) Delivered() bool {
	if !p.Broadcast {
		return true
	}
	switch left := atomic.AddInt32(&p.left, -1); {
	case left == 0:
		return true
	case left < 0:
		panic(fmt.Sprintf("noc: %s delivered more often than expected", p))
	}
	return false
}

// String identifies the packet for diagnostics.
func (p *Packet) String() string {
	dst := fmt.Sprintf("%d", p.Dst)
	if p.Broadcast {
		dst = "*"
	}
	return fmt.Sprintf("pkt#%d %s %d->%s kind=%d addr=%#x flits=%d", p.ID, p.VNet, p.Src, dst, p.Kind, p.Addr, p.Flits)
}

// Flit is one link-level transfer unit of a packet. It is a small value type
// — 32 bytes, two per cache line — moved by copy: links latch flit values in
// their mailboxes and each router input VC is a fixed ring of flit values, so
// the datapath walks contiguous memory instead of a heap object graph (see
// DESIGN.md §7). The packed field types (int16 VC, int8 port) are private and
// never overflow: VC counts and port numbers are single digits by
// construction.
type Flit struct {
	Pkt *Packet
	// Seq is the flit's index within the packet (0 = head).
	Seq int
	// arrival is the cycle the flit was written into the current input
	// buffer; the router pipeline latency is measured from it.
	arrival uint64
	// inVC is the downstream input VC assigned by the sender's VC selection.
	inVC int16
	// outPorts is the set of output ports this flit still has to traverse at
	// the current router (multicast forking leaves the flit in place until
	// every branch has been served). Encoded as a bitmask over Port values.
	outPorts uint8
	// bypassCandidate marks a flit that arrived this cycle with an empty
	// queue ahead of it, i.e. its lookahead may claim the switch directly.
	bypassCandidate bool
	// lastPort/lastDstVC record the most recent traversal so the input VC can
	// latch wormhole state when the head flit departs.
	lastPort  int8
	lastDstVC int8
}

// NewFlit constructs a flit value assigned to downstream input VC vc; network
// interface controllers use it to serialize packets into the mesh.
func NewFlit(p *Packet, seq, vc int) Flit {
	return Flit{Pkt: p, Seq: seq, inVC: int16(vc)}
}

// InVC returns the input virtual channel the sender assigned to the flit.
func (f *Flit) InVC() int { return int(f.inVC) }

// IsHead reports whether the flit carries the packet header.
func (f *Flit) IsHead() bool { return f.Seq == 0 }

// IsTail reports whether the flit is the last of its packet.
func (f *Flit) IsTail() bool { return f.Seq == f.Pkt.Flits-1 }

// portMask returns the bitmask bit for a port.
func portMask(p Port) uint8 { return 1 << uint(p) }
