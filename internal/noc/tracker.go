package noc

// TotalVCs returns the number of virtual channels for a virtual network
// including the reserved deadlock-avoidance VC of GO-REQ.
func (c Config) TotalVCs(v VNet) int {
	if v == GOReq {
		return c.GOReqVCs + 1
	}
	return c.UORespVCs
}

// ReservedVC returns the reserved VC index for the virtual network, or -1 if
// the class has none. For GO-REQ the reserved VC is the last index.
func (c Config) ReservedVC(v VNet) int {
	if v == GOReq {
		return c.GOReqVCs
	}
	return -1
}

// trackerTable is the upstream-side book-keeping for downstream input ports:
// per-VC credit counts, VC allocation state, and the GO-REQ SID tracker
// table that enforces point-to-point ordering of same-source requests
// (Section 3.2 of the paper). A router keeps one row per output port and a
// Terminal one row for its injection port. Credits, busy flags and SID
// entries for every (port, VC) pair live in flat parallel slices indexed by
//
//	int(port)*vcsPerPort + flat VC
//
// with GO-REQ VCs (including the reserved one) below split and UO-RESP VCs
// above it — the same flat VC numbering the router's input-side tables use.
type trackerTable struct {
	vcsPerPort int
	split      int // GO-REQ VC count (ordinary + reserved)
	goVCs      int // ordinary GO-REQ VCs (excluding the reserved one)
	uoVCs      int
	goDepth    int16
	uoDepth    int16
	credits    []int16
	busy       []bool
	sid        []int32 // GO-REQ entries only; -1 = none in flight
}

// newTrackerTable returns a table for ports downstream input ports with
// every credit available.
func newTrackerTable(cfg Config, ports int) trackerTable {
	t := trackerTable{
		split:   cfg.TotalVCs(GOReq),
		goVCs:   cfg.GOReqVCs,
		uoVCs:   cfg.UORespVCs,
		goDepth: int16(cfg.BufDepthFor(GOReq)),
		uoDepth: int16(cfg.BufDepthFor(UOResp)),
	}
	t.vcsPerPort = t.split + t.uoVCs
	n := ports * t.vcsPerPort
	t.credits = make([]int16, n)
	t.busy = make([]bool, n)
	t.sid = make([]int32, n)
	for i := range t.credits {
		if i%t.vcsPerPort < t.split {
			t.credits[i] = t.goDepth
		} else {
			t.credits[i] = t.uoDepth
		}
		t.sid[i] = -1
	}
	return t
}

// flat returns the table index for (port, vnet, vc).
func (t *trackerTable) flat(p Port, v VNet, vc int) int {
	i := int(p)*t.vcsPerPort + vc
	if v == UOResp {
		i += t.split
	}
	return i
}

// depth returns the downstream buffer depth for a vnet.
func (t *trackerTable) depth(v VNet) int16 {
	if v == GOReq {
		return t.goDepth
	}
	return t.uoDepth
}

// processCredit applies one returned credit for a port.
func (t *trackerTable) processCredit(p Port, c Credit) {
	i := t.flat(p, c.VNet, c.VC)
	t.credits[i]++
	if t.credits[i] > t.depth(c.VNet) {
		panic("noc: credit overflow — downstream returned more credits than buffer slots")
	}
	if c.FreeVC {
		t.busy[i] = false
		if c.VNet == GOReq {
			t.sid[i] = -1
		}
	}
}

// sidInFlight reports whether any GO-REQ VC of the port currently holds a
// request with the given SID.
func (t *trackerTable) sidInFlight(p Port, sid int) bool {
	base := int(p) * t.vcsPerPort
	for i := base; i < base+t.split; i++ {
		if t.sid[i] == int32(sid) {
			return true
		}
	}
	return false
}

// allocHeadVC finds a free downstream VC of port p with credit for a head
// flit. For GO-REQ it enforces the SID tracker rule (a same-SID request must
// not already be in flight to this input port) and offers the reserved VC
// only when no ordinary VC is free: reserved then reports that the caller
// may use the VC only if the flit is eligible (its exact (SID, sequence) is
// the ESID of a NIC it will reach). Checking eligibility last keeps that scan
// off every allocation an ordinary VC can serve. It returns the chosen VC
// without claiming it; call claimHeadVC on the winning flit.
func (t *trackerTable) allocHeadVC(p Port, v VNet, sid int) (int, bool, bool) {
	base := int(p) * t.vcsPerPort
	if v == GOReq {
		if t.sidInFlight(p, sid) {
			return 0, false, false
		}
		for vc := 0; vc < t.goVCs; vc++ {
			if i := base + vc; !t.busy[i] && t.credits[i] > 0 {
				return vc, false, true
			}
		}
		rvc := t.goVCs // reserved VC is the last GO-REQ index
		if i := base + rvc; !t.busy[i] && t.credits[i] > 0 {
			return rvc, true, true
		}
		return 0, false, false
	}
	for vc := 0; vc < t.uoVCs; vc++ {
		if i := base + t.split + vc; !t.busy[i] && t.credits[i] > 0 {
			return vc, false, true
		}
	}
	return 0, false, false
}

// claimHeadVC marks the VC busy, charges one credit and records the SID in
// the tracker table for GO-REQ.
func (t *trackerTable) claimHeadVC(p Port, v VNet, vc, sid int) {
	i := t.flat(p, v, vc)
	t.busy[i] = true
	t.credits[i]--
	if t.credits[i] < 0 {
		panic("noc: sent flit without credit")
	}
	if v == GOReq {
		t.sid[i] = int32(sid)
	}
}

// canSendBody reports whether a body/tail flit may be sent on an already
// allocated VC.
func (t *trackerTable) canSendBody(p Port, v VNet, vc int) bool {
	return t.credits[t.flat(p, v, vc)] > 0
}

// chargeBody consumes one credit for a body/tail flit.
func (t *trackerTable) chargeBody(p Port, v VNet, vc int) {
	i := t.flat(p, v, vc)
	t.credits[i]--
	if t.credits[i] < 0 {
		panic("noc: sent body flit without credit")
	}
}

// TrackerView is a read-only window onto one output port's slice of a
// router's tracker table, so diagnostics (Mesh.Snapshot, watchdog reports)
// and tests are layout-agnostic.
type TrackerView struct {
	r *Router
	p Port
}

// Credits exposes the current credit count for the viewed port.
func (tv TrackerView) Credits(v VNet, vc int) int {
	return int(tv.r.trk.credits[tv.r.trk.flat(tv.p, v, vc)])
}

// Busy exposes the VC allocation state for the viewed port.
func (tv TrackerView) Busy(v VNet, vc int) bool {
	return tv.r.trk.busy[tv.r.trk.flat(tv.p, v, vc)]
}

// TrackedSID exposes the SID tracker entry for a GO-REQ VC of the viewed
// port.
func (tv TrackerView) TrackedSID(vc int) int {
	return int(tv.r.trk.sid[tv.r.trk.flat(tv.p, GOReq, vc)])
}
