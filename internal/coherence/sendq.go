package coherence

import "scorpio/internal/noc"

// SendQ is the latency-scheduled send queue every controller drains: both
// L2s, the memory controller and the directory home. A packet waits until
// its ready cycle, then is offered to the NIC every cycle until accepted;
// sends keep the order they were scheduled in. The packet's virtual network
// picks the NIC queue: request class for HT probes, response class for
// everything else.
type SendQ struct {
	sends []scheduled
	now   uint64 // cycle of the last Drain (idle-check reference)
}

// scheduled is one queued send. stamp, when non-nil, is the payload field
// that records the cycle the packet was first offered to the NIC (RespSent
// or DataSent); it is written only while still 0.
type scheduled struct {
	at    uint64
	pkt   *noc.Packet
	stamp *uint64
}

// sendQFirst is a queue's size at its first Add. It covers the usual
// high-water mark (a Figure 6a directory home reaches 7 sends), so most
// queues never grow; the queue is made at first use, not at build.
const sendQFirst = 8

// Add schedules p for cycle at, stamping *stamp (if non-nil) at its first
// offer.
func (q *SendQ) Add(at uint64, p *noc.Packet, stamp *uint64) {
	if q.sends == nil {
		q.sends = make([]scheduled, 0, sendQFirst)
	}
	q.sends = append(q.sends, scheduled{at: at, pkt: p, stamp: stamp})
}

// Drain offers every due send to n in order, keeping the refused ones and
// those not yet due.
func (q *SendQ) Drain(n NetPort, cycle uint64) {
	q.now = cycle
	rest := q.sends[:0]
	for _, s := range q.sends {
		if s.at > cycle {
			rest = append(rest, s)
			continue
		}
		if s.stamp != nil && *s.stamp == 0 {
			*s.stamp = cycle
		}
		var ok bool
		if s.pkt.VNet == noc.GOReq {
			ok = n.SendRequest(s.pkt)
		} else {
			ok = n.SendResponse(s.pkt)
		}
		if !ok {
			rest = append(rest, s)
		}
	}
	q.sends = rest
}

// Idle reports whether no send was due at the last Drain: a send whose
// latency elapsed, refused by the NIC or scheduled since, must be offered
// every cycle, while one still in the future permits parking.
func (q *SendQ) Idle() bool {
	for i := range q.sends {
		if q.sends[i].at <= q.now {
			return false
		}
	}
	return true
}

// NextEventCycle implements sim.NextEventer for the queue: the earliest
// ready cycle, no earlier than cycle+1, or never when empty.
func (q *SendQ) NextEventCycle(cycle uint64) uint64 {
	next := ^uint64(0)
	for i := range q.sends {
		next = min(next, q.sends[i].at)
	}
	if next <= cycle {
		return cycle + 1
	}
	return next
}
