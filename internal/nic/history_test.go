package nic

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"scorpio/internal/notif"
)

// stopMask stands in for a NIC on the notification network and drops its
// stop bit while masked, so the NIC's tracker can fill to TrackerDepth:
// the deepest it goes without overflowing, which a working stop bit never
// lets it reach.
type stopMask struct {
	src    notif.Source
	masked bool
}

func (m *stopMask) NotificationOffer() (int, bool) {
	count, stop := m.src.NotificationOffer()
	return count, stop && !m.masked
}

// expandESIDs is the reference expansion: the ESID sequence of the given
// non-stop merged vectors, vector i walked from source i mod N through N−1
// and then from 0, one entry per announced request.
func expandESIDs(vectors []notif.Vector, nodes int) []int {
	var sids []int
	for i, v := range vectors {
		start := i % nodes
		for k := 0; k < nodes; k++ {
			sid := (start + k) % nodes
			for c := v.Count(sid); c > 0; c-- {
				sids = append(sids, sid)
			}
		}
	}
	return sids
}

// historyHarness builds a 4×4 net in which nodes 0, 6 and 15 announce
// requests at different rates, so consecutive merged vectors differ, and
// node 5's stop bit is masked; its agent refuses ordered requests while
// refuse returns true. The merged vectors are saved as they are delivered.
type historyHarness struct {
	*harness
	mask  *stopMask
	saved []notif.Vector
}

const (
	historyDepth = 4
	slowNode     = 5
)

func newHistoryHarness(t *testing.T, requests int) *historyHarness {
	cfg := DefaultConfig()
	cfg.TrackerDepth = historyDepth
	h := &historyHarness{harness: newHarness(t, 4, 4, cfg, 1)}
	for node, every := range map[int]int{0: 9, 6: 14, 15: 23} {
		h.agents[node].toSend = requests
		h.agents[node].every = every
	}
	h.mask = &stopMask{src: h.nics[slowNode], masked: true}
	h.nnet.AttachSource(slowNode, h.mask)
	return h
}

// step runs one cycle and saves the vector it delivered, if any.
func (h *historyHarness) step() {
	h.k.Step()
	if v, ok := h.nnet.Delivered(); ok && !v.Stop {
		v.Words = slices.Clone(v.Words)
		h.saved = append(h.saved, v)
	}
}

// queued is the slow node's tracker occupancy while it refuses everything:
// every non-stop vector delivered but the one it is expanding.
func (h *historyHarness) queued() int {
	return int(h.nnet.WindowsDelivered-h.nnet.StoppedWindows) - 1
}

// TestTrackerFullReleasesSavedOrder holds the slow node's tracker at
// TrackerDepth queued vectors, the oldest the history must still hold
// being the one under expansion, then lets it go: the ESIDs it releases
// must be the expansion of the vectors as they were delivered.
func TestTrackerFullReleasesSavedOrder(t *testing.T) {
	const requests = 12
	h := newHistoryHarness(t, requests)
	open := false
	h.agents[slowNode].refuse = func() bool {
		if !open && h.queued() == historyDepth {
			open = true
			h.mask.masked = false
		}
		return !open
	}
	want := 3 * requests * 16
	for c := 0; h.totalDelivered() < want; c++ {
		if c == 200_000 {
			t.Fatalf("delivered %d/%d ordered requests", h.totalDelivered(), want)
		}
		h.step()
	}
	if !open {
		t.Fatalf("node %d's tracker never filled to %d", slowNode, historyDepth)
	}
	assertGlobalOrder(t, h.agents)
	ref := expandESIDs(h.saved, 16)
	got := h.agents[slowNode].ordered
	if len(got) != len(ref) {
		t.Fatalf("node %d released %d requests; the saved vectors announce %d", slowNode, len(got), len(ref))
	}
	for i, d := range got {
		if d.sid != ref[i] {
			t.Fatalf("node %d released source %d at position %d, saved vectors expand to %d", slowNode, d.sid, i, ref[i])
		}
	}
}

// TestTrackerOverflowsOneWindowPastDepth keeps the slow node refusing with
// its stop bit masked: the window that would queue TrackerDepth+1 vectors
// behind the one under expansion must panic, and none before it.
func TestTrackerOverflowsOneWindowPastDepth(t *testing.T) {
	h := newHistoryHarness(t, 40)
	h.agents[slowNode].refuse = func() bool { return true }
	msg := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		for c := 0; c < 20_000; c++ {
			h.step()
		}
		return ""
	}()
	if want := fmt.Sprintf("node %d notification tracker overflow", slowNode); !strings.Contains(msg, want) {
		t.Fatalf("panic %q, want %q", msg, want)
	}
	if got := h.queued(); got != historyDepth+1 {
		t.Fatalf("overflow with %d vectors queued behind the one under expansion, want %d", got, historyDepth+1)
	}
}
