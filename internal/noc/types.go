// Package noc implements SCORPIO's main network: a k×k mesh of three-stage
// virtual-channel routers with XY routing, credit-based flow control,
// lookahead bypassing, single-cycle multicast forking for broadcasts, a
// reserved virtual channel per input port for deadlock avoidance on the
// globally ordered request class, and SID-tracker tables that preserve
// point-to-point ordering of requests from the same source.
//
// The network carries two virtual networks (message classes):
//
//   - GO-REQ: globally ordered coherence requests. Packets are single-flit,
//     may be broadcast, and are ejected to the attached agent in the global
//     order dictated by the notification network (package notif) via the
//     network interface controller (package nic).
//   - UO-RESP: unordered coherence responses. Packets are unicast and may be
//     multi-flit (cache-line data).
package noc

import "fmt"

// VNet identifies a virtual network (message class).
type VNet int

// The two virtual networks of the SCORPIO main network.
const (
	GOReq VNet = iota
	UOResp
	NumVNets
)

// String returns the paper's name for the virtual network.
func (v VNet) String() string {
	switch v {
	case GOReq:
		return "GO-REQ"
	case UOResp:
		return "UO-RESP"
	default:
		return fmt.Sprintf("VNet(%d)", int(v))
	}
}

// Port identifies a router port.
type Port int

// Router ports. Local connects the tile's network interface controller.
const (
	Local Port = iota
	North
	East
	South
	West
	NumPorts
)

// String returns a one-letter name for the port.
func (p Port) String() string {
	switch p {
	case Local:
		return "L"
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	default:
		return fmt.Sprintf("Port(%d)", int(p))
	}
}

// opposite returns the port on the neighbouring router that faces p.
func (p Port) opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return p
	}
}

// Config holds the main-network parameters swept in the paper's design
// exploration (Section 5.2).
type Config struct {
	// Width and Height of the mesh in tiles (6×6 for the fabricated chip).
	Width, Height int
	// ChannelBytes is the channel width in bytes (16 on the chip). It
	// determines flits per data packet.
	ChannelBytes int
	// GOReqVCs is the number of ordinary virtual channels in the GO-REQ
	// virtual network (4 on the chip), excluding the reserved VC.
	GOReqVCs int
	// GOReqBufDepth is the buffer depth per GO-REQ VC in flits (1 on the chip).
	GOReqBufDepth int
	// UORespVCs is the number of virtual channels in the UO-RESP virtual
	// network (2 on the chip).
	UORespVCs int
	// UORespBufDepth is the buffer depth per UO-RESP VC in flits (3).
	UORespBufDepth int
	// RouterStages is the router pipeline depth without bypassing (3).
	RouterStages int
	// Bypass enables lookahead bypassing (single-stage router traversal).
	Bypass bool
	// LineBytes is the cache-line size carried by data packets (32).
	LineBytes int
}

// DefaultConfig returns the fabricated 36-core chip's network parameters
// (Table 1 of the paper).
func DefaultConfig() Config {
	return Config{
		Width:          6,
		Height:         6,
		ChannelBytes:   16,
		GOReqVCs:       4,
		GOReqBufDepth:  1,
		UORespVCs:      2,
		UORespBufDepth: 3,
		RouterStages:   3,
		Bypass:         true,
		LineBytes:      32,
	}
}

// Nodes returns the number of tiles in the mesh.
func (c Config) Nodes() int { return c.Width * c.Height }

// Validate reports a descriptive error for unusable parameter combinations.
func (c Config) Validate() error {
	switch {
	case c.Width < 2 || c.Height < 2:
		return fmt.Errorf("noc: mesh must be at least 2x2, got %dx%d", c.Width, c.Height)
	case c.ChannelBytes < 1:
		return fmt.Errorf("noc: channel width must be positive, got %d", c.ChannelBytes)
	case c.GOReqVCs < 1:
		return fmt.Errorf("noc: GO-REQ needs at least 1 ordinary VC, got %d", c.GOReqVCs)
	case c.UORespVCs < 1:
		return fmt.Errorf("noc: UO-RESP needs at least 1 VC, got %d", c.UORespVCs)
	case c.GOReqBufDepth < 1 || c.UORespBufDepth < 1:
		return fmt.Errorf("noc: buffer depths must be positive")
	case c.RouterStages < 1:
		return fmt.Errorf("noc: router pipeline must have at least 1 stage")
	case c.LineBytes < 1:
		return fmt.Errorf("noc: invalid line size %d", c.LineBytes)
	}
	return nil
}

// DataPacketFlits returns the number of flits in a cache-line data packet for
// this channel width: one header flit plus ceil(line/channel) payload flits.
// At the chip's 16-byte channels and 32-byte lines this is 3 flits; 8-byte
// channels need 5 and 32-byte channels 2, matching Section 5.2.
func (c Config) DataPacketFlits() int {
	return 1 + (c.LineBytes+c.ChannelBytes-1)/c.ChannelBytes
}

// BufDepthFor returns the per-VC buffer depth for a virtual network.
func (c Config) BufDepthFor(v VNet) int {
	if v == GOReq {
		return c.GOReqBufDepth
	}
	return c.UORespBufDepth
}

// Coord converts a node ID to mesh (x, y) coordinates, row-major with node 0
// at the north-west corner (matching the chip's tile numbering).
func (c Config) Coord(node int) (x, y int) {
	return node % c.Width, node / c.Width
}

// NodeAt converts (x, y) coordinates to a node ID.
func (c Config) NodeAt(x, y int) int {
	return y*c.Width + x
}
