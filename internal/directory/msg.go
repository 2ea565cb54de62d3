// Package directory implements the two directory-coherence baselines of
// Section 5: LPD-D, a distributed limited-pointer directory [Agarwal et al.,
// ISCA 1988], and HT-D, an AMD HyperTransport-style ordering-point directory
// [Conway & Hughes, IEEE Micro 2007] that stores no sharer information and
// broadcasts probes. Both run on the identical mesh NoC with the ordered
// virtual network and notification network removed, per the paper's
// "all other conditions equal" methodology.
//
// The directory state proper is distributed across every core (256KB total
// directory cache split N ways, home node = line address mod N); a home
// serialises transactions per line (blocking directory) and requesters
// confirm completion with Done messages.
package directory

import "fmt"

// Kind enumerates the directory protocols' message types (values live in
// noc.Packet.Kind; they are disjoint from the snoopy kinds only by system
// construction, not by value).
type Kind int

const (
	// ReqGetS/ReqGetX/ReqPutM are requester→home messages (request class,
	// unicast).
	ReqGetS Kind = iota
	ReqGetX
	ReqPutM
	// ProbeS/ProbeX are HT-D's home→everyone broadcast probes (request
	// class).
	ProbeS
	ProbeX
	// FwdGetS/FwdGetX are LPD-D's home→owner forwards (response class).
	FwdGetS
	FwdGetX
	// Inv is a home→sharer invalidation; the sharer acks the requester.
	Inv
	// DataD carries line data to the requester (owner- or memory-sourced).
	DataD
	// InvAck is a sharer→requester invalidation acknowledgement.
	InvAck
	// WBData carries writeback data to the home.
	WBData
	// WBAck closes a writeback at the evicting tile.
	WBAck
	// Done is the requester→home transaction-complete notification that
	// unblocks the line.
	Done
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ReqGetS:
		return "ReqGetS"
	case ReqGetX:
		return "ReqGetX"
	case ReqPutM:
		return "ReqPutM"
	case ProbeS:
		return "ProbeS"
	case ProbeX:
		return "ProbeX"
	case FwdGetS:
		return "FwdGetS"
	case FwdGetX:
		return "FwdGetX"
	case Inv:
		return "Inv"
	case DataD:
		return "DataD"
	case InvAck:
		return "InvAck"
	case WBData:
		return "WBData"
	case WBAck:
		return "WBAck"
	case Done:
		return "Done"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Variant selects the directory protocol.
type Variant int

const (
	// LPD is the limited-pointer directory (owner + 4 sharer pointers,
	// broadcast invalidations past the pointer limit).
	LPD Variant = iota
	// HT is the HyperTransport-style directory (2 bits: ownership + valid;
	// probes broadcast to all cores).
	HT
)

// String names the variant as the paper's figures do.
func (v Variant) String() string {
	if v == LPD {
		return "LPD-D"
	}
	return "HT-D"
}

// Info rides in every directory-protocol message. A forward, probe or
// invalidation carries the transaction's trail so far; a DataD response
// extends it with the owner's stamps for the Figure 6b/6c breakdown.
type Info struct {
	Requester   int    // the transaction's requester (forwards, probes, Invs)
	HomeArrive  uint64 // request arrival at the home NIC
	Dispatch    uint64 // home sent the forward/probe/DRAM access
	OwnerArrive uint64 // forward/probe reached the owner
	DataSent    uint64
	AckCount    int // invalidation acks the requester must collect
	// MemServes marks a probe the home answers from memory: no cache owns
	// the line, so a writeback buffer whose PutM the home already processed
	// must stay silent.
	MemServes     bool
	ServedByCache bool
	Broadcast     bool // HT probe path (Network: Bcast Req segment)
}
