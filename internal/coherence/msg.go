// Package coherence implements SCORPIO's snoopy cache coherence protocol
// (Section 4.2 of the paper): MOSI with the O_D dirty-owner state that keeps
// dirty data on chip until eviction, forwarding-ID (FID) lists that service
// snoops to lines with in-flight writes without blocking, and writebacks
// that ride the ordered request stream.
//
// The L2Controller is the per-tile protocol engine. It consumes the globally
// ordered request stream delivered by its network interface controller,
// maintains the tile's L2 array and region-tracker snoop filter, and serves
// the core (or trace injector) through CoreRequest/completion callbacks. Its
// core-facing half, the Requester, is shared with the directory baselines'
// L2, SendQ is the send queue every controller drains, and Pool is the
// machine's free list of protocol messages.
package coherence

import (
	"fmt"

	"scorpio/internal/noc"
)

// Kind enumerates the snoopy protocol's message types. Values are carried in
// noc.Packet.Kind.
type Kind int

const (
	// GetS is a read miss: broadcast, globally ordered.
	GetS Kind = iota
	// GetX is a write miss or upgrade: broadcast, globally ordered.
	GetX
	// PutM announces a dirty-line writeback: broadcast, globally ordered.
	PutM
	// Data is a cache-to-cache data response (unordered, multi-flit).
	Data
	// DataMem is a memory-controller data response (unordered, multi-flit).
	DataMem
	// WBData carries writeback data to the memory controller (unordered).
	WBData
	// WBAck acknowledges a completed writeback (unordered, single-flit).
	WBAck
)

// String names the message kind.
func (k Kind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetX:
		return "GetX"
	case PutM:
		return "PutM"
	case Data:
		return "Data"
	case DataMem:
		return "DataMem"
	case WBData:
		return "WBData"
	case WBAck:
		return "WBAck"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Ordered reports whether the kind travels on the globally ordered request
// class.
func (k Kind) Ordered() bool { return k == GetS || k == GetX || k == PutM }

// State is an L2 cache-line coherence state.
type State int

const (
	// Invalid: not present.
	Invalid State = iota
	// Shared: read-only copy; some owner (cache or memory) supplies data.
	Shared
	// Modified: exclusive dirty copy; this tile is the owner.
	Modified
	// OwnedDirty is the paper's O_D state: dirty data shared on chip, this
	// tile forwards it and is responsible for the eventual writeback. The
	// clean O state of textbook MOSI never materialises in this protocol
	// (memory serves clean data directly), matching the paper's use of O_D
	// in place of a dirty bit.
	OwnedDirty
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	case OwnedDirty:
		return "O_D"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// owner reports whether the state makes the tile responsible for supplying
// data.
func (s State) owner() bool { return s == Modified || s == OwnedDirty }

// RespInfo is the info of the snoopy protocol's unicast messages (their
// Msg[RespInfo]): data responses carry it so the requester can reconstruct
// the latency breakdown of Figures 6b/6c, and data carries the line's value
// for the consistency-verification suite (internal/litmus).
type RespInfo struct {
	// Value is the cache line's data (modelled as one word).
	Value uint64
	// ServedByCache distinguishes cache-to-cache transfers from memory.
	ServedByCache bool
	// ReqArrive is the cycle the (broadcast) request reached the server NIC.
	ReqArrive uint64
	// ReqOrdered is the cycle the server processed it in global order.
	ReqOrdered uint64
	// DirAccess counts directory-cache plus DRAM cycles (memory-served).
	DirAccess uint64
	// Service counts the server's L2/DRAM data-access cycles.
	Service uint64
	// RespSent is the cycle the data response entered the server NIC.
	RespSent uint64
}

// MemMap locates the memory controller responsible for a line address.
type MemMap interface {
	// HomeMC returns the node hosting the memory-controller port that owns
	// the address.
	HomeMC(addr uint64) int
}

// NetPort is the injection interface controllers use; *nic.NIC implements
// it, as do the idealized endpoints of the TokenB/INSO baselines.
type NetPort interface {
	// SendRequest enqueues a request-class packet; false means retry.
	SendRequest(p *noc.Packet) bool
	// SendResponse enqueues a response-class packet; false means retry.
	SendResponse(p *noc.Packet) bool
}
