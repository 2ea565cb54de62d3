// Package audit implements an allocation-conscious online correctness
// monitor for the simulated machines. It subscribes to the same
// nil-when-off hook points as the lifecycle tracer and enforces, while the
// run is still going, the three properties SCORPIO's litmus suite can only
// spot-check after the fact:
//
//	(a) global-order consistency — every NIC commits the ordered request
//	    stream in an identical total order, read from the machine's
//	    OrderCheck (which runs on every run, audited or not);
//	(b) MOSI invariants — at most one owner per line, no Modified copy
//	    coexisting with up-to-date sharers, every ordered invalidation
//	    eventually clears its sharer bit, tracked in a compact per-line
//	    bitmask shadow;
//	(c) delivery sanity — no packet sinks at a NIC before its order-commit,
//	    no ordered commit without a prior network arrival, and no duplicate
//	    flits across the mesh's multicast forks.
//
// On the first violation the auditor latches a watchdog-style report naming
// the line, the NICs involved and the divergent orders (plus the full
// network snapshot), and the machine's run loop aborts.
//
// Because NICs commit the same global sequence at different physical
// cycles, cross-node shadow checks are position-qualified: a sharer s is
// only considered stale with respect to a Modified owner once pos[s] has
// advanced past the owner's commit watermark at install time (grantPos). A
// lagging node that simply has not processed the invalidation yet is never
// a violation.
package audit

import (
	"fmt"
	"strings"
	"sync"

	"scorpio/internal/bitset"
)

// LineState is the auditor's protocol-agnostic view of a cache line state.
// Coherence controllers map their own state enums onto it at every array
// mutation.
type LineState uint8

const (
	LineInvalid LineState = iota
	LineShared
	LineOwned
	LineModified
)

// String names the state for violation reports.
func (s LineState) String() string {
	switch s {
	case LineInvalid:
		return "Invalid"
	case LineShared:
		return "Shared"
	case LineOwned:
		return "Owned"
	case LineModified:
		return "Modified"
	}
	return "?"
}

const (
	// SweepEvery is the cycle interval between full shadow sweeps (the
	// eventually-clears-its-sharer-bit check).
	SweepEvery = 1 << 10

	// maxFlitSeq bounds the per-packet flit bitmask; packets are a handful
	// of flits, so 64 is generous.
	maxFlitSeq = 64
)

// lineShadow is the compact per-line MOSI shadow. own is owner+1 (0 = no
// owner) so the map's zero value means "no information". grantPos is the
// owner's commit watermark when it installed Modified. The sharer set is a
// multi-word bitset sized to the machine, so the shadow works at any node
// count.
type lineShadow struct {
	sharers  bitset.Set
	grantPos uint64
	own      int16
	ownerM   bool
}

// pktNode keys per-(packet, node) tracking maps.
type pktNode struct {
	pkt  uint64
	node int32
}

// Auditor is the online monitor. All hook methods are safe on a nil
// receiver (the everything-off configuration) and safe to call from
// parallel kernel workers.
type Auditor struct {
	mu       sync.Mutex
	nodes    int
	snapshot func() string

	violated bool
	report   string

	// (a) global order: the machine's check (nil for unordered machines),
	// plus each NIC's commits so far, which qualify the MOSI shadow's
	// cross-node checks and the notification bound.
	order *OrderCheck
	pos   []uint64

	// (b) MOSI shadow.
	lines map[uint64]lineShadow

	// (c) delivery sanity.
	lastCommit   []uint64
	lastCommitOK []bool
	arrivals     map[pktNode]struct{}
	flits        map[pktNode]uint64

	// Notification cross-check: no NIC may commit more ordered requests
	// than the notification windows have announced.
	announced uint64
	notifSeen bool

	// Diagnostics (exposed, never violations).
	ncommits     uint64
	nflits       uint64
	nsweeps      uint64
	partialAtEnd int
	arriveAtEnd  int
}

// New builds an auditor for an n-node machine. order is the machine's
// global-order check (nil when it has none); snapshot (may be nil) renders
// the network state for violation reports, exactly like the watchdog's
// closure.
func New(n int, order *OrderCheck, snapshot func() string) *Auditor {
	return &Auditor{
		nodes:        n,
		snapshot:     snapshot,
		order:        order,
		pos:          make([]uint64, n),
		lines:        make(map[uint64]lineShadow, 1<<15),
		lastCommit:   make([]uint64, n),
		lastCommitOK: make([]bool, n),
		arrivals:     make(map[pktNode]struct{}, 1<<13),
		flits:        make(map[pktNode]uint64, 1<<12),
	}
}

// failf latches the first violation. The report mirrors the watchdog's
// shape: a one-line diagnosis, optional detail, then the network snapshot.
func (a *Auditor) failf(format string, args ...any) {
	if a.violated {
		return
	}
	a.violated = true
	var b strings.Builder
	fmt.Fprintf(&b, "audit: "+format+"\n", args...)
	if a.snapshot != nil {
		b.WriteString(a.snapshot())
	}
	a.report = b.String()
}

// OrderCommit records that a NIC committed pkt as its next global-order
// slot, right after the NIC reported it to the order check: a check failure
// latches here, at the commit that caused it.
func (a *Auditor) OrderCommit(node int, pkt uint64, src int, cycle uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.violated || node < 0 || node >= a.nodes {
		return
	}
	if err := a.order.Err(); err != nil {
		a.failf("%v", err)
		return
	}
	p := a.pos[node]
	if src != node {
		if _, ok := a.arrivals[pktNode{pkt, int32(node)}]; !ok {
			a.failf("NIC %d order-committed packet %#x (src %d, position %d, cycle %d) with no prior network arrival",
				node, pkt, src, p, cycle)
			return
		}
	}
	a.pos[node] = p + 1
	a.lastCommit[node] = pkt
	a.lastCommitOK[node] = true
	a.ncommits++
	if a.notifSeen && a.pos[node] > a.announced {
		a.failf("NIC %d committed %d ordered requests but the notification network announced only %d",
			node, a.pos[node], a.announced)
	}
}

// Arrive records a broadcast request's network arrival at a NIC. The mesh
// delivers each packet to each node at most once; a repeat is a multicast
// forking bug.
func (a *Auditor) Arrive(node int, pkt uint64, src int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.violated {
		return
	}
	k := pktNode{pkt, int32(node)}
	if _, ok := a.arrivals[k]; ok {
		a.failf("duplicate network arrival: packet %#x (src %d) reached NIC %d twice", pkt, src, node)
		return
	}
	a.arrivals[k] = struct{}{}
}

// Sink records a packet leaving the network at a NIC. An ordered sink must
// immediately follow that NIC's order-commit of the same packet.
func (a *Auditor) Sink(node int, pkt uint64, ordered bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.violated || node < 0 || node >= a.nodes {
		return
	}
	if ordered && (!a.lastCommitOK[node] || a.lastCommit[node] != pkt) {
		a.failf("packet %#x sank at NIC %d before its order-commit", pkt, node)
		return
	}
	delete(a.arrivals, pktNode{pkt, int32(node)})
}

// FlitDelivered records one flit ejected at a router's local port. Each
// (packet, node) assembly must see every sequence number exactly once; a
// repeat means a multicast fork duplicated a flit. Complete assemblies
// retire immediately, keeping the map bounded by in-flight packets.
func (a *Auditor) FlitDelivered(node int, pkt uint64, seq, flits int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.violated {
		return
	}
	a.nflits++
	if flits <= 0 || flits > maxFlitSeq {
		return // oversized packets fall back to untracked
	}
	if seq < 0 || seq >= flits {
		a.failf("flit seq %d out of range for %d-flit packet %#x at node %d", seq, flits, pkt, node)
		return
	}
	k := pktNode{pkt, int32(node)}
	mask := a.flits[k]
	bit := uint64(1) << uint(seq)
	if mask&bit != 0 {
		a.failf("duplicate flit: seq %d of packet %#x delivered twice at node %d (multicast fork)", seq, pkt, node)
		return
	}
	mask |= bit
	if mask == uint64(1)<<uint(flits)-1 {
		delete(a.flits, k)
		return
	}
	a.flits[k] = mask
}

// LineState records a coherence controller's cache-array mutation and
// checks the MOSI invariants against the shadow.
func (a *Auditor) LineState(node int, addr uint64, st LineState, cycle uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.violated || node < 0 || node >= a.nodes {
		return
	}
	sh := a.lines[addr]
	if sh.sharers == nil {
		sh.sharers = bitset.New(a.nodes)
	}
	switch st {
	case LineInvalid:
		sh.sharers.Remove(node)
		if sh.own == int16(node)+1 {
			sh.own, sh.ownerM = 0, false
		}
		if !sh.sharers.Any() && sh.own == 0 {
			delete(a.lines, addr)
			return
		}
	case LineShared:
		if sh.ownerM && sh.own != int16(node)+1 && a.pos[node] > sh.grantPos {
			a.failf("line %#x: NIC %d installed a Shared copy at cycle %d while NIC %d holds Modified (granted at order position %d)",
				addr, node, cycle, sh.own-1, sh.grantPos)
			return
		}
		sh.sharers.Add(node)
		if sh.own == int16(node)+1 {
			sh.own, sh.ownerM = 0, false
		}
	case LineOwned, LineModified:
		if sh.own != 0 && sh.own != int16(node)+1 {
			a.failf("line %#x: two owners — NIC %d installed %v at cycle %d while NIC %d already owns the line",
				addr, node, st, cycle, sh.own-1)
			return
		}
		sh.own = int16(node) + 1
		sh.sharers.Remove(node)
		if st == LineModified {
			sh.ownerM = true
			sh.grantPos = a.pos[node]
			if sh.sharers.Any() && a.staleSharerLocked(addr, &sh, cycle) {
				return
			}
		} else {
			sh.ownerM = false
		}
	}
	a.lines[addr] = sh
}

// staleSharerLocked flags any sharer that has committed past the Modified
// grant yet still holds a copy (its ordered invalidation never cleared the
// bit). Returns true when it latched a violation.
func (a *Auditor) staleSharerLocked(addr uint64, sh *lineShadow, cycle uint64) bool {
	for s := sh.sharers.Next(0); s >= 0; s = sh.sharers.Next(s + 1) {
		if sh.own == int16(s)+1 {
			continue
		}
		if a.pos[s] > sh.grantPos {
			a.failf("line %#x: NIC %d holds Modified (granted at order position %d) but NIC %d still holds a sharer copy after committing position %d (cycle %d)",
				addr, sh.own-1, sh.grantPos, s, a.pos[s]-1, cycle)
			return true
		}
	}
	return false
}

// NotifWindow records one delivered notification window's announced request
// count (SCORPIO only; baselines never call it).
func (a *Auditor) NotifWindow(total int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.notifSeen = true
	a.announced += uint64(total)
	a.mu.Unlock()
}

// Observe is the kernel's post-commit hook: every SweepEvery cycles it
// re-runs the position-qualified stale-sharer scan so invalidations that
// never land are caught even without further installs on the line.
func (a *Auditor) Observe(cycle uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.violated || cycle%SweepEvery != 0 {
		return
	}
	a.nsweeps++
	a.sweepLocked(cycle)
}

func (a *Auditor) sweepLocked(cycle uint64) {
	for addr, sh := range a.lines {
		if !sh.ownerM || !sh.sharers.Any() {
			continue
		}
		if a.staleSharerLocked(addr, &sh, cycle) {
			return
		}
	}
}

// Finish runs the end-of-run sweep and snapshots the lenient diagnostics.
// Partial flit assemblies and unsunk arrivals at run end are legitimate
// (final-request broadcasts and INSO expiry packets may still be in
// flight), so they are counted, not flagged.
func (a *Auditor) Finish(cycle uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.violated {
		a.sweepLocked(cycle)
	}
	a.partialAtEnd = len(a.flits)
	a.arriveAtEnd = len(a.arrivals)
}

// Violated reports whether a violation latched. Safe on nil.
func (a *Auditor) Violated() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.violated
}

// Report returns the latched violation report ("" when healthy). Safe on nil.
func (a *Auditor) Report() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.report
}

// Commits returns the total order-commits cross-checked so far.
func (a *Auditor) Commits() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ncommits
}

// FlitsChecked returns how many locally-delivered flits were verified.
func (a *Auditor) FlitsChecked() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nflits
}

// Summary renders the one-line health digest printed after audited runs.
func (a *Auditor) Summary() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.violated {
		return "audit: VIOLATED"
	}
	front, _ := a.order.Positions()
	return fmt.Sprintf("audit: ok — %d order commits cross-checked over %d positions, %d flits verified, %d shadow lines live, %d sweeps",
		a.ncommits, front, a.nflits, len(a.lines), a.nsweeps)
}
