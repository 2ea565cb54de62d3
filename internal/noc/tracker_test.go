package noc

import "testing"

func TestTrackerTableCreditLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	ts := makeTrackerSlabs(cfg, 1)
	tr := newTrackerTable(cfg, 1, &ts)
	vc, _, ok := tr.allocHeadVC(Local, UOResp, 0)
	if !ok {
		t.Fatal("fresh tracker must have a free VC")
	}
	tr.claimHeadVC(Local, UOResp, vc, 0)
	i := tr.flat(Local, UOResp, vc)
	if !tr.busy[i] || int(tr.credits[i]) != cfg.UORespBufDepth-1 {
		t.Fatal("claim must mark busy and charge a credit")
	}
	tr.chargeBody(Local, UOResp, vc)
	tr.chargeBody(Local, UOResp, vc)
	if tr.canSendBody(Local, UOResp, vc) {
		t.Fatal("credits exhausted, body send must be blocked")
	}
	tr.processCredit(Local, Credit{VNet: UOResp, VC: vc})
	if !tr.canSendBody(Local, UOResp, vc) {
		t.Fatal("credit return must re-enable sends")
	}
	tr.processCredit(Local, Credit{VNet: UOResp, VC: vc})
	tr.processCredit(Local, Credit{VNet: UOResp, VC: vc, FreeVC: true})
	if tr.busy[i] {
		t.Fatal("FreeVC credit must release the VC")
	}
}

func TestTrackerTableSIDExclusion(t *testing.T) {
	ts := makeTrackerSlabs(DefaultConfig(), 1)
	tr := newTrackerTable(DefaultConfig(), 1, &ts)
	vc, _, ok := tr.allocHeadVC(Local, GOReq, 7)
	if !ok {
		t.Fatal("alloc failed")
	}
	tr.claimHeadVC(Local, GOReq, vc, 7)
	if tr.sid[tr.flat(Local, GOReq, vc)] != 7 {
		t.Fatal("SID tracker entry missing")
	}
	if _, _, ok := tr.allocHeadVC(Local, GOReq, 7); ok {
		t.Fatal("a same-SID request must not be in flight twice to one port")
	}
	if _, _, ok := tr.allocHeadVC(Local, GOReq, 8); !ok {
		t.Fatal("a different SID must still be admitted")
	}
	tr.processCredit(Local, Credit{VNet: GOReq, VC: vc, FreeVC: true})
	if tr.sid[tr.flat(Local, GOReq, vc)] != -1 {
		t.Fatal("SID tracker entry must clear with the credit")
	}
	if _, _, ok := tr.allocHeadVC(Local, GOReq, 7); !ok {
		t.Fatal("SID admissible again after the first request cleared")
	}
}

func TestTrackerTableReservedVCOfferedLast(t *testing.T) {
	cfg := DefaultConfig()
	ts := makeTrackerSlabs(cfg, 1)
	tr := newTrackerTable(cfg, 1, &ts)
	// Exhaust the normal GO-REQ VCs with distinct SIDs; none of them may be
	// reported as the reserved VC.
	for i := 0; i < cfg.GOReqVCs; i++ {
		vc, reserved, ok := tr.allocHeadVC(Local, GOReq, i)
		if !ok || reserved {
			t.Fatalf("normal VC %d not allocatable (ok=%v reserved=%v)", i, ok, reserved)
		}
		tr.claimHeadVC(Local, GOReq, vc, i)
	}
	// The reserved VC is offered last, flagged so the caller checks
	// eligibility before taking it.
	rvc, reserved, ok := tr.allocHeadVC(Local, GOReq, 99)
	if !ok || !reserved || rvc != cfg.ReservedVC(GOReq) {
		t.Fatalf("reserved VC not offered as the last option, got %d ok=%v reserved=%v", rvc, ok, reserved)
	}
	// A SID already in flight gets nothing, not even the reserved VC.
	if _, _, ok := tr.allocHeadVC(Local, GOReq, 0); ok {
		t.Fatal("a same-SID request must not reach the reserved VC")
	}
	tr.claimHeadVC(Local, GOReq, rvc, 99)
	if _, _, ok := tr.allocHeadVC(Local, GOReq, 100); ok {
		t.Fatal("every GO-REQ VC is busy, allocation must fail")
	}
}

func TestConfigVCCounts(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TotalVCs(GOReq) != cfg.GOReqVCs+1 {
		t.Fatal("GO-REQ must include the reserved VC")
	}
	if cfg.TotalVCs(UOResp) != cfg.UORespVCs {
		t.Fatal("UO-RESP has no reserved VC")
	}
	if cfg.ReservedVC(UOResp) != -1 {
		t.Fatal("UO-RESP reserved index must be -1")
	}
}
