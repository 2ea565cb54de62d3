package audit

import (
	"fmt"
	"sync"
)

// OrderCheck is the global-order check every ordered machine runs on every
// run, audited or not: each node must accept the ordered requests in the
// same total order. Its memory is fixed by the window, never by run length.
// The first node to reach position p establishes the packet for it in ring
// slot p mod window; every later node at p must commit the same packet. A
// node that trails the front by more than the window is itself an error,
// because the slot it still needs has been overwritten.
//
// The first failure latches. The NICs and baseline endpoints call Commit
// from parallel kernel workers, so a mutex guards the state. All methods are
// safe on a nil check, which checks nothing (directory machines and NIC unit
// tests).
type OrderCheck struct {
	mu       sync.Mutex
	ring     []uint64 // ring[p%len(ring)]: the packet established at position p
	ringNode []int32  // the node that established it
	pos      []uint64 // per node: positions committed (= its next position)
	front    uint64   // positions established
	minCache uint64   // lower bound on min(pos), monotone
	err      error
}

// NewOrderCheck builds the check for an n-node machine whose nodes never
// trail the front by more than window positions.
func NewOrderCheck(n, window int) *OrderCheck {
	return &OrderCheck{
		ring:     make([]uint64, window),
		ringNode: make([]int32, window),
		pos:      make([]uint64, n),
	}
}

// Commit records that node accepted pkt as its next ordered request at
// cycle.
func (c *OrderCheck) Commit(node int, pkt, cycle uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	w := uint64(len(c.ring))
	p := c.pos[node]
	slot := p % w
	if p == c.front {
		// Front-runner: the slot still holds position p-w, which no node may
		// need any more. The cached minimum spares the scan until it could.
		if c.front-c.minCache >= w {
			lag := 0
			for i, v := range c.pos {
				if v < c.pos[lag] {
					lag = i
				}
			}
			c.minCache = c.pos[lag]
			if c.front-c.minCache >= w {
				c.err = fmt.Errorf("global order check window exceeded: NIC %d trails the front by %d positions at cycle %d (window %d)",
					lag, c.front+1-c.minCache, cycle, w)
				return
			}
		}
		c.ring[slot], c.ringNode[slot] = pkt, int32(node)
		c.front++
	} else if c.ring[slot] != pkt {
		c.err = fmt.Errorf("global order diverged at position %d: NIC %d committed packet %#x at cycle %d but NIC %d established packet %#x",
			p, node, pkt, cycle, c.ringNode[slot], c.ring[slot])
		return
	}
	c.pos[node] = p + 1
}

// Err returns the latched failure, nil while every node agrees.
func (c *OrderCheck) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Positions returns how many positions the fastest node has established
// and how many ordered requests the slowest node has accepted.
func (c *OrderCheck) Positions() (front, slowest uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slowest = c.front
	for _, v := range c.pos {
		slowest = min(slowest, v)
	}
	return c.front, slowest
}
