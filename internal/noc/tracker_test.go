package noc

import "testing"

func TestOutputTrackerCreditLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	tr := NewOutputTracker(cfg)
	vc, _, ok := tr.AllocHeadVC(UOResp, 0)
	if !ok {
		t.Fatal("fresh tracker must have a free VC")
	}
	tr.ClaimHeadVC(UOResp, vc, 0)
	if !tr.Busy(UOResp, vc) || tr.Credits(UOResp, vc) != cfg.UORespBufDepth-1 {
		t.Fatal("claim must mark busy and charge a credit")
	}
	tr.ChargeBody(UOResp, vc)
	tr.ChargeBody(UOResp, vc)
	if tr.CanSendBody(UOResp, vc) {
		t.Fatal("credits exhausted, body send must be blocked")
	}
	tr.ProcessCredit(Credit{VNet: UOResp, VC: vc})
	if !tr.CanSendBody(UOResp, vc) {
		t.Fatal("credit return must re-enable sends")
	}
	tr.ProcessCredit(Credit{VNet: UOResp, VC: vc})
	tr.ProcessCredit(Credit{VNet: UOResp, VC: vc, FreeVC: true})
	if tr.Busy(UOResp, vc) {
		t.Fatal("FreeVC credit must release the VC")
	}
}

func TestOutputTrackerSIDExclusion(t *testing.T) {
	tr := NewOutputTracker(DefaultConfig())
	vc, _, ok := tr.AllocHeadVC(GOReq, 7)
	if !ok {
		t.Fatal("alloc failed")
	}
	tr.ClaimHeadVC(GOReq, vc, 7)
	if tr.TrackedSID(vc) != 7 {
		t.Fatal("SID tracker entry missing")
	}
	if _, _, ok := tr.AllocHeadVC(GOReq, 7); ok {
		t.Fatal("a same-SID request must not be in flight twice to one port")
	}
	if _, _, ok := tr.AllocHeadVC(GOReq, 8); !ok {
		t.Fatal("a different SID must still be admitted")
	}
	tr.ProcessCredit(Credit{VNet: GOReq, VC: vc, FreeVC: true})
	if tr.TrackedSID(vc) != -1 {
		t.Fatal("SID tracker entry must clear with the credit")
	}
	if _, _, ok := tr.AllocHeadVC(GOReq, 7); !ok {
		t.Fatal("SID admissible again after the first request cleared")
	}
}

func TestOutputTrackerReservedVCEligibility(t *testing.T) {
	cfg := DefaultConfig()
	tr := NewOutputTracker(cfg)
	// Exhaust the normal GO-REQ VCs with distinct SIDs; none of them may be
	// reported as the reserved VC.
	for i := 0; i < cfg.GOReqVCs; i++ {
		vc, reserved, ok := tr.AllocHeadVC(GOReq, i)
		if !ok || reserved {
			t.Fatalf("normal VC %d not allocatable (ok=%v reserved=%v)", i, ok, reserved)
		}
		tr.ClaimHeadVC(GOReq, vc, i)
	}
	// The reserved VC is offered last, flagged so the caller checks
	// eligibility before taking it.
	rvc, reserved, ok := tr.AllocHeadVC(GOReq, 99)
	if !ok || !reserved || rvc != cfg.ReservedVC(GOReq) {
		t.Fatalf("reserved VC not offered as the last option, got %d ok=%v reserved=%v", rvc, ok, reserved)
	}
	// A SID already in flight gets nothing, not even the reserved VC.
	if _, _, ok := tr.AllocHeadVC(GOReq, 0); ok {
		t.Fatal("a same-SID request must not reach the reserved VC")
	}
	tr.ClaimHeadVC(GOReq, rvc, 99)
	if _, _, ok := tr.AllocHeadVC(GOReq, 100); ok {
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
