package audit

import (
	"strings"
	"testing"
)

// commitAll commits pkt at every node in order, feeding arrivals first the
// way the NIC hooks do (the source node self-loops without a network
// arrival): each node reports the commit to the order check, then to the
// auditor.
func commitAll(a *Auditor, c *OrderCheck, nodes int, pkt uint64, src int, cycle uint64) {
	for n := 0; n < nodes; n++ {
		if n != src {
			a.Arrive(n, pkt, src)
		}
	}
	for n := 0; n < nodes; n++ {
		c.Commit(n, pkt, cycle)
		a.OrderCommit(n, pkt, src, cycle)
		a.Sink(n, pkt, true)
	}
}

func TestHealthySequenceStaysSilent(t *testing.T) {
	c := NewOrderCheck(4, 8)
	a := New(4, c, nil)
	for i := uint64(1); i <= 100; i++ {
		commitAll(a, c, 4, 0x1000+i, int(i%4), i)
	}
	// A well-behaved MOSI episode: read-share, then upgrade with the sharers
	// dropping their copies before anyone commits past the grant.
	a.LineState(1, 0xabc, LineShared, 10)
	a.LineState(2, 0xabc, LineShared, 11)
	a.LineState(1, 0xabc, LineInvalid, 20)
	a.LineState(2, 0xabc, LineInvalid, 20)
	a.LineState(0, 0xabc, LineModified, 21)
	a.LineState(0, 0xabc, LineOwned, 30) // M -> O on a remote GetS
	a.LineState(3, 0xabc, LineShared, 31)
	// Flits assemble exactly once per node.
	for n := 0; n < 4; n++ {
		a.FlitDelivered(n, 0x99, 0, 2)
		a.FlitDelivered(n, 0x99, 1, 2)
	}
	a.Observe(SweepEvery)
	a.Finish(200)
	if a.Violated() {
		t.Fatalf("healthy sequence flagged: %s", a.Report())
	}
	if got := a.Commits(); got != 400 {
		t.Fatalf("Commits() = %d, want 400", got)
	}
	if !strings.HasPrefix(a.Summary(), "audit: ok") || !strings.Contains(a.Summary(), "over 100 positions") {
		t.Fatalf("Summary() = %q", a.Summary())
	}
}

// TestAuditorLatchesOrderCheckFailure: an audited run aborts at the commit
// that broke the global order, with the check's diagnosis and the network
// snapshot in the report.
func TestAuditorLatchesOrderCheckFailure(t *testing.T) {
	c := NewOrderCheck(2, 8)
	a := New(2, c, func() string { return "SNAPSHOT" })
	c.Commit(0, 0xaaa, 5)
	a.OrderCommit(0, 0xaaa, 0, 5)
	if a.Violated() {
		t.Fatalf("healthy commit flagged: %s", a.Report())
	}
	a.Arrive(1, 0xbbb, 0)
	c.Commit(1, 0xbbb, 6)
	a.OrderCommit(1, 0xbbb, 0, 6)
	if !a.Violated() {
		t.Fatal("order-check failure not latched")
	}
	r := a.Report()
	for _, want := range []string{"audit: global order diverged at position 0", "SNAPSHOT"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestCommitWithoutArrival(t *testing.T) {
	a := New(2, nil, nil)
	a.OrderCommit(1, 0xccc, 0, 5) // src 0, never arrived at node 1
	if !a.Violated() || !strings.Contains(a.Report(), "no prior network arrival") {
		t.Fatalf("missing-arrival commit not flagged: %s", a.Report())
	}
}

func TestTwoOwnersNamesLineAndNICs(t *testing.T) {
	a := New(4, nil, nil)
	a.LineState(0, 0xdead, LineModified, 10)
	a.LineState(2, 0xdead, LineModified, 11)
	if !a.Violated() {
		t.Fatal("two-owner line not flagged")
	}
	r := a.Report()
	for _, want := range []string{"0xdead", "two owners", "NIC 2", "NIC 0"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestSharedInstallWhileModified(t *testing.T) {
	a := New(2, nil, nil)
	a.LineState(0, 0xf00, LineModified, 5) // grantPos = pos[0] = 0
	a.OrderCommit(1, 0x1, 1, 6)            // pos[1] = 1 > grantPos
	a.LineState(1, 0xf00, LineShared, 7)
	if !a.Violated() || !strings.Contains(a.Report(), "holds Modified") {
		t.Fatalf("Shared-while-Modified not flagged: %s", a.Report())
	}
}

func TestLaggingSharedInstallIsNotAViolation(t *testing.T) {
	a := New(2, nil, nil)
	a.LineState(0, 0xf00, LineModified, 5)
	// Node 1 has not committed past the grant — it legitimately has not
	// processed the invalidation yet.
	a.LineState(1, 0xf00, LineShared, 6)
	if a.Violated() {
		t.Fatalf("lagging sharer wrongly flagged: %s", a.Report())
	}
}

func TestSweepCatchesStaleSharer(t *testing.T) {
	a := New(2, nil, nil)
	a.LineState(1, 0xbeef, LineShared, 1)
	a.LineState(0, 0xbeef, LineModified, 2) // install while sharer lags: fine
	if a.Violated() {
		t.Fatalf("install wrongly flagged: %s", a.Report())
	}
	a.OrderCommit(1, 0x1, 1, 3) // sharer commits past the grant, bit uncleared
	a.Observe(SweepEvery)
	if !a.Violated() {
		t.Fatal("stale sharer not flagged by sweep")
	}
	r := a.Report()
	for _, want := range []string{"0xbeef", "NIC 0", "NIC 1", "sharer copy"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestDuplicateFlit(t *testing.T) {
	a := New(4, nil, nil)
	a.FlitDelivered(2, 0x77, 0, 3)
	a.FlitDelivered(2, 0x77, 1, 3)
	a.FlitDelivered(2, 0x77, 1, 3)
	if !a.Violated() || !strings.Contains(a.Report(), "duplicate flit") {
		t.Fatalf("duplicate flit not flagged: %s", a.Report())
	}
	if !strings.Contains(a.Report(), "node 2") {
		t.Errorf("report does not name the node:\n%s", a.Report())
	}
}

func TestDuplicateArrival(t *testing.T) {
	a := New(4, nil, nil)
	a.Arrive(3, 0x55, 1)
	a.Arrive(3, 0x55, 1)
	if !a.Violated() || !strings.Contains(a.Report(), "duplicate network arrival") {
		t.Fatalf("duplicate arrival not flagged: %s", a.Report())
	}
}

func TestOrderedSinkBeforeCommit(t *testing.T) {
	a := New(2, nil, nil)
	a.Sink(0, 0x42, true)
	if !a.Violated() || !strings.Contains(a.Report(), "before its order-commit") {
		t.Fatalf("premature ordered sink not flagged: %s", a.Report())
	}
}

func TestNotificationUndercount(t *testing.T) {
	a := New(1, nil, nil)
	a.NotifWindow(1)
	a.OrderCommit(0, 0x1, 0, 10)
	a.OrderCommit(0, 0x2, 0, 11)
	if !a.Violated() || !strings.Contains(a.Report(), "notification network announced only 1") {
		t.Fatalf("notification undercount not flagged: %s", a.Report())
	}
}

func TestNilAuditorIsInert(t *testing.T) {
	var a *Auditor
	a.OrderCommit(0, 1, 0, 0)
	a.Arrive(0, 1, 0)
	a.Sink(0, 1, true)
	a.FlitDelivered(0, 1, 0, 1)
	a.LineState(0, 1, LineModified, 0)
	a.NotifWindow(1)
	a.Observe(0)
	a.Finish(0)
	if a.Violated() || a.Report() != "" || a.Summary() != "" || a.Commits() != 0 {
		t.Fatal("nil auditor not inert")
	}
}

func TestFirstViolationLatches(t *testing.T) {
	a := New(2, nil, nil)
	a.Sink(0, 0x1, true)
	first := a.Report()
	a.LineState(0, 0x2, LineModified, 1)
	a.LineState(1, 0x2, LineModified, 2) // would be a second violation
	if a.Report() != first {
		t.Fatal("later violation overwrote the first report")
	}
}
