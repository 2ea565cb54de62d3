// Package notif implements SCORPIO's notification network: an
// ultra-lightweight bufferless mesh of bitwise-OR merge "routers" that
// broadcasts, once per fixed time window, which sources injected coherence
// requests that need to be globally ordered (Section 3.3 of the paper).
//
// A notification message is an N-field vector (one small counter per core,
// encoded in BitsPerCore bits) plus a "stop" backpressure bit. Messages merge
// by bitwise OR, so they can never contend and the network latency is bounded
// by the mesh diameter. All nodes therefore hold an identical merged vector
// at the end of every time window, which is what makes a consistent,
// decentralised global order possible.
package notif

import (
	"fmt"

	"scorpio/internal/obs"
	"scorpio/internal/obs/audit"
	"scorpio/internal/sim"
	"scorpio/internal/slab"
)

// Config describes a notification network.
type Config struct {
	// Width and Height of the mesh in nodes.
	Width, Height int
	// BitsPerCore is the width of each core's counter field (1 on the chip:
	// one request per core per window; 2 bits allow three, per §5.2).
	BitsPerCore int
	// WindowCycles is the time-window length; 0 selects Width+Height+1
	// (13 cycles for the 6×6 chip, Table 1), which covers the mesh diameter.
	WindowCycles int
}

// Validate reports an error for unusable parameters.
func (c Config) Validate() error {
	switch {
	case c.Width < 1 || c.Height < 1:
		return fmt.Errorf("notif: mesh must be at least 1x1, got %dx%d", c.Width, c.Height)
	case c.BitsPerCore < 1 || c.BitsPerCore > 8:
		return fmt.Errorf("notif: bits per core must be in [1,8], got %d", c.BitsPerCore)
	case c.WindowCycles != 0 && c.WindowCycles < c.Width+c.Height-1:
		return fmt.Errorf("notif: window of %d cycles cannot cover the mesh diameter %d", c.WindowCycles, c.Width+c.Height-2)
	}
	return nil
}

// Window returns the effective time-window length in cycles.
func (c Config) Window() int {
	if c.WindowCycles != 0 {
		return c.WindowCycles
	}
	return c.Width + c.Height + 1
}

// MaxPerWindow returns the largest request count one core can announce in a
// single window.
func (c Config) MaxPerWindow() int {
	return (1 << c.BitsPerCore) - 1
}

// Nodes returns the number of nodes.
func (c Config) Nodes() int { return c.Width * c.Height }

// Vector is a merged notification message: per-core request counts and the
// stop backpressure bit. The counts are packed BitsPerCore-bit fields
// (rounded up to a power-of-two width) in Words, 64/width cores per word —
// the hardware-faithful wire format. A 256-core vector at 1 bit/core is 4
// words, so merging and scanning cost O(nodes/64) words instead of O(nodes)
// bytes; that is what lifts the notification network's per-node O(N) blowup
// on large meshes. OR-merging words is exact per-field union because only
// core i ever sets field i.
type Vector struct {
	Words []uint64
	Stop  bool
	// width is the field width in bits (1, 2, 4 or 8); nodes bounds iteration.
	width uint8
	nodes int32
}

// NewVector returns a zero vector for an n-core network with bitsPerCore-bit
// counters.
func NewVector(n, bitsPerCore int) Vector {
	w := fieldWidth(bitsPerCore)
	words := (n*w + 63) / 64
	return Vector{Words: make([]uint64, words), width: uint8(w), nodes: int32(n)}
}

// fieldWidth rounds a counter width up to a power of two so fields never
// straddle word boundaries.
func fieldWidth(bits int) int {
	for _, w := range [...]int{1, 2, 4, 8} {
		if bits <= w {
			return w
		}
	}
	return 8
}

func (v Vector) mask() uint64 { return 1<<v.width - 1 }

// Count returns core i's announced request count.
func (v Vector) Count(i int) int {
	per := 64 / int(v.width)
	return int(v.Words[i/per] >> (uint(i%per) * uint(v.width)) & v.mask())
}

// set stores core i's count; the field must currently be zero.
func (v Vector) set(i, count int) {
	per := 64 / int(v.width)
	v.Words[i/per] |= uint64(count) << (uint(i%per) * uint(v.width))
}

// merge ORs other into v. Because only core i ever sets field i, OR equals
// exact per-field union.
func (v *Vector) merge(other Vector) {
	for i, w := range other.Words {
		v.Words[i] |= w
	}
	v.Stop = v.Stop || other.Stop
}

// Empty reports whether the vector announces no requests and no stop.
func (v Vector) Empty() bool {
	if v.Stop {
		return false
	}
	for _, w := range v.Words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Total returns the number of requests announced across all cores.
func (v Vector) Total() int {
	n := 0
	for i, c := v.NextFrom(0); i >= 0; i, c = v.NextFrom(i + 1) {
		n += c
	}
	return n
}

// NextFrom returns the first core >= i with a nonzero count, and that count;
// core -1 when none remains. Zero words are skipped whole, so scanning a
// sparse vector costs O(words), which is how the NICs expand ESID sequences
// without an O(nodes) walk per window.
func (v Vector) NextFrom(i int) (int, int) {
	if i < 0 {
		i = 0
	}
	n := int(v.nodes)
	per := 64 / int(v.width)
	for i < n {
		word := v.Words[i/per] >> (uint(i%per) * uint(v.width))
		for word != 0 {
			if c := word & v.mask(); c != 0 {
				return i, int(c)
			}
			word >>= uint(v.width)
			i++
		}
		i = (i/per + 1) * per
	}
	return -1, 0
}

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	return v.CloneUsing(nil)
}

// CloneUsing returns an independent copy backed by buf when buf has the
// capacity (a fresh slice otherwise); callers that recycle word buffers pass
// a spare one to keep steady-state cloning allocation-free.
func (v Vector) CloneUsing(buf []uint64) Vector {
	c := v
	if cap(buf) >= len(v.Words) {
		c.Words = buf[:len(v.Words)]
	} else {
		c.Words = make([]uint64, len(v.Words))
	}
	copy(c.Words, v.Words)
	return c
}

// Source is a node-side provider of notification offers. The network samples
// each node's committed offer at every window start; the node observes the
// same window boundary and debits its pending count by the amount offered.
type Source interface {
	// NotificationOffer returns the request count (≤ MaxPerWindow) the node
	// announces in the window that starts now, and whether the node asserts
	// the stop bit.
	NotificationOffer() (count int, stop bool)
}

// Network is the whole notification mesh, modelled as one kernel component:
// per-node OR-latches, 1-hop-per-cycle propagation, and end-of-window
// delivery.
type Network struct {
	cfg             Config
	sources         []Source
	cur             []Vector
	next            []Vector
	delivered       Vector
	hasDelivery     bool
	pendingDelivery Vector
	pendingHas      bool
	// winLive marks a window whose start seeded any nonzero offer or stop
	// bit; the OR-mesh must then run every cycle until the window delivers.
	// An all-zero window is a provable no-op (zero latches OR to zero), so
	// the network may park through it.
	winLive bool
	// srcActs are the sources' scheduling units, woken for the cycle after a
	// window delivers so parked NICs consume the merged vector exactly when
	// running ones do.
	srcActs []*sim.Activity
	// Stats
	WindowsDelivered uint64
	StoppedWindows   uint64

	// tracer is nil unless lifecycle tracing is enabled; auditor likewise
	// cross-checks announced window totals against NIC commits.
	tracer  *obs.Tracer
	auditor *audit.Auditor
}

// NewNetwork builds a notification network.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, sources: make([]Source, cfg.Nodes())}
	n.cur = make([]Vector, cfg.Nodes())
	n.next = make([]Vector, cfg.Nodes())
	// Every node's two vectors share one slab of words.
	proto := NewVector(cfg.Nodes(), cfg.BitsPerCore)
	words := slab.Make[uint64](2 * cfg.Nodes() * len(proto.Words))
	for i := range n.cur {
		n.cur[i] = proto.CloneUsing(words.Cut(len(proto.Words)))
		n.next[i] = proto.CloneUsing(words.Cut(len(proto.Words)))
	}
	n.pendingDelivery = NewVector(cfg.Nodes(), cfg.BitsPerCore)
	n.delivered = NewVector(cfg.Nodes(), cfg.BitsPerCore)
	return n, nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// AttachSource registers the node's NIC as a notification source.
func (n *Network) AttachSource(node int, s Source) { n.sources[node] = s }

// SetSourceActivity wires a source node's scheduling unit for the
// delivery-cycle wake (see srcActs).
func (n *Network) SetSourceActivity(node int, a *sim.Activity) {
	if n.srcActs == nil {
		n.srcActs = make([]*sim.Activity, n.cfg.Nodes())
	}
	n.srcActs[node] = a
}

// SetTracer attaches a lifecycle event tracer (nil disables tracing).
func (n *Network) SetTracer(t *obs.Tracer) { n.tracer = t }

// SetAuditor attaches the online auditor (nil disables auditing).
func (n *Network) SetAuditor(a *audit.Auditor) { n.auditor = a }

// WindowStart reports whether the given cycle begins a time window. Sources
// use it to know when their committed offer is consumed.
func (n *Network) WindowStart(cycle uint64) bool {
	return cycle%uint64(n.cfg.Window()) == 0
}

// Delivered returns the merged vector of the window that ended last cycle.
// ok is true only during the first cycle of the following window.
func (n *Network) Delivered() (Vector, bool) {
	return n.delivered, n.hasDelivery
}

// Evaluate advances the OR-mesh one cycle.
func (n *Network) Evaluate(cycle uint64) {
	w := uint64(n.cfg.Window())
	pos := cycle % w
	if pos == 0 {
		// Window start: seed latches from the sources' committed offers.
		n.winLive = false
		for i := range n.next {
			clearVector(&n.next[i])
			if s := n.sources[i]; s != nil {
				count, stop := s.NotificationOffer()
				if count > n.cfg.MaxPerWindow() {
					panic(fmt.Sprintf("notif: node %d offered %d notifications, max %d", i, count, n.cfg.MaxPerWindow()))
				}
				n.next[i].set(i, count)
				n.next[i].Stop = stop
				if count > 0 || stop {
					n.winLive = true
				}
			}
		}
		return
	}
	// Propagate: each latch ORs its own value with its mesh neighbours'.
	// Copy into the pre-allocated next-latch buffers instead of cloning; the
	// per-node, per-cycle Clone was the largest fixed allocation cost of the
	// whole simulate loop (nodes × cycles vectors).
	for i := range n.next {
		copy(n.next[i].Words, n.cur[i].Words)
		n.next[i].Stop = n.cur[i].Stop
		x, y := i%n.cfg.Width, i/n.cfg.Width
		if x > 0 {
			n.next[i].merge(n.cur[i-1])
		}
		if x < n.cfg.Width-1 {
			n.next[i].merge(n.cur[i+1])
		}
		if y > 0 {
			n.next[i].merge(n.cur[i-n.cfg.Width])
		}
		if y < n.cfg.Height-1 {
			n.next[i].merge(n.cur[i+n.cfg.Width])
		}
	}
	if pos == w-1 {
		// Window end: node 0's latch equals every node's latch by now; it is
		// the merged message handed to all NICs next cycle. Copied into a
		// reusable buffer — NICs that keep the vector past the one delivery
		// cycle clone it themselves.
		copy(n.pendingDelivery.Words, n.next[0].Words)
		n.pendingDelivery.Stop = n.next[0].Stop
		n.pendingHas = !n.pendingDelivery.Empty()
	}
}

// Commit latches the propagation step and publishes end-of-window delivery.
func (n *Network) Commit(cycle uint64) {
	n.cur, n.next = n.next, n.cur
	w := uint64(n.cfg.Window())
	if cycle%w == w-1 {
		// Swap rather than alias: the two vectors stay distinct buffers so the
		// next window's Evaluate never scribbles over the published delivery.
		n.delivered, n.pendingDelivery = n.pendingDelivery, n.delivered
		n.hasDelivery = n.pendingHas
		if n.pendingHas {
			n.WindowsDelivered++
			if n.delivered.Stop {
				n.StoppedWindows++
			}
			if n.tracer != nil {
				stop := int8(0)
				if n.delivered.Stop {
					stop = 1
				}
				n.tracer.Record(obs.Event{
					Cycle: cycle, Type: obs.EvNotifWindow, Node: -1, Src: -1,
					Arg: uint64(n.delivered.Total()), Port: stop, VNet: -1, VC: -1,
				})
			}
			if n.auditor != nil && !n.delivered.Stop {
				// A stop window is voided entirely (NICs re-arm their
				// announcements), so only non-stop windows announce ordered
				// requests the NICs will commit.
				n.auditor.NotifWindow(n.delivered.Total())
			}
			// Every node consumes the merged vector on the next cycle (the
			// following window's first); wake any parked sources for it.
			for _, a := range n.srcActs {
				a.Wake(cycle+1, sim.WakeNotif)
			}
		}
		n.winLive = false
		n.pendingHas = false
	} else {
		n.hasDelivery = false
	}
}

// Idle implements sim.Idler: the OR-mesh may be skipped outside live windows
// — no nonzero window in flight, no delivery awaiting consumption, and no
// source holding a committed nonzero offer for the next window start (NICs
// also wake the network for such starts; the scan makes Idle self-contained
// when a wake was dropped because the network was still active).
func (n *Network) Idle() bool {
	if n.winLive || n.hasDelivery || n.pendingHas {
		return false
	}
	for _, s := range n.sources {
		if s == nil {
			continue
		}
		if count, stop := s.NotificationOffer(); count > 0 || stop {
			return false
		}
	}
	return true
}

// Latch exposes a node's current latch value (for tests).
func (n *Network) Latch(node int) Vector { return n.cur[node].Clone() }

func clearVector(v *Vector) {
	for i := range v.Words {
		v.Words[i] = 0
	}
	v.Stop = false
}
