package noc

import "testing"

// TestLinkCreditBurstStaysInItsPiece sends one link more credits in a cycle
// than its credit slice holds, for each link of a mesh and each of the two
// slices, and checks that every link still reads exactly the credit it was
// sent the cycle before. The slices of all links are pieces of one slab, so
// a piece cut without its capacity limit would grow into the next piece:
// the link's own other slice, or the next link's first.
func TestLinkCreditBurstStaysInItsPiece(t *testing.T) {
	m, err := NewMesh(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cycle := uint64(1)
	for burst := range m.links {
		for slice := uint64(0); slice < 2; slice++ {
			if cycle%2 == slice {
				cycle++ // the markers go in the slice the burst does not
			}
			for i := range m.links {
				m.links[i].SendCredit(Credit{VC: -1}, cycle)
			}
			for vc := 0; vc <= linkCredits; vc++ {
				m.links[burst].SendCredit(Credit{VC: vc}, cycle+1)
			}
			for i := range m.links {
				if got := m.links[i].Credits(cycle + 1); len(got) != 1 || got[0].VC != -1 {
					t.Fatalf("link %d bursting %d credits into slice %d: link %d reads %v, want its one marker",
						burst, linkCredits+1, slice, i, got)
				}
			}
			if got := m.links[burst].Credits(cycle + 2); len(got) != linkCredits+1 {
				t.Fatalf("link %d delivers %d of its %d credits", burst, len(got), linkCredits+1)
			}
			cycle += 2
		}
	}
}
