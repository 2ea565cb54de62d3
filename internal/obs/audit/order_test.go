package audit

import (
	"strings"
	"sync"
	"testing"
)

func TestOrderCheckAgreementPasses(t *testing.T) {
	c := NewOrderCheck(3, 4)
	for i := uint64(0); i < 50; i++ {
		for n := 0; n < 3; n++ {
			c.Commit(n, 0x100+i, i)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if front, slowest := c.Positions(); front != 50 || slowest != 50 {
		t.Fatalf("front %d, slowest %d, want 50 and 50", front, slowest)
	}
}

func TestDivergentCommitNamesBothNICs(t *testing.T) {
	c := NewOrderCheck(2, 8)
	c.Commit(0, 0xaaa, 5)
	c.Commit(1, 0xbbb, 6)
	err := c.Err()
	if err == nil {
		t.Fatal("divergent commit not flagged")
	}
	for _, want := range []string{"global order diverged", "position 0", "NIC 1 committed packet 0xbbb", "cycle 6", "NIC 0 established packet 0xaaa"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

// TestWindowExceededNamesLaggard: a node may trail the front by the whole
// window, and one position more is an error naming it.
func TestWindowExceededNamesLaggard(t *testing.T) {
	const w = 8
	c := NewOrderCheck(3, w)
	for i := uint64(0); i < w; i++ {
		c.Commit(0, 0x100+i, i)
		c.Commit(2, 0x100+i, i)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("trailing by the window flagged: %v", err)
	}
	if front, slowest := c.Positions(); front != w || slowest != 0 {
		t.Fatalf("front %d, slowest %d, want %d and 0", front, slowest, w)
	}
	c.Commit(0, 0x100+w, w)
	err := c.Err()
	if err == nil {
		t.Fatal("trailing by the window plus one not flagged")
	}
	for _, want := range []string{"window exceeded", "NIC 1", "by 9 positions", "window 8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

func TestOrderCheckFirstFailureLatches(t *testing.T) {
	c := NewOrderCheck(2, 8)
	c.Commit(0, 0x1, 1)
	c.Commit(1, 0x2, 2)
	first := c.Err()
	c.Commit(0, 0x3, 3)
	c.Commit(1, 0x4, 4)
	if c.Err() != first {
		t.Fatalf("later commits replaced the first failure: %v", c.Err())
	}
}

func TestNilOrderCheckIsInert(t *testing.T) {
	var c *OrderCheck
	c.Commit(0, 1, 0)
	if front, slowest := c.Positions(); c.Err() != nil || front != 0 || slowest != 0 {
		t.Fatal("nil order check not inert")
	}
}

// TestOrderCheckConcurrentCommits drives the check from one goroutine per
// node, the way parallel kernel workers do; run it under -race.
func TestOrderCheckConcurrentCommits(t *testing.T) {
	const nodes, n = 4, 2000
	c := NewOrderCheck(nodes, n)
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < n; i++ {
				c.Commit(node, 0x100+i, i)
			}
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if _, slowest := c.Positions(); slowest != n {
		t.Fatalf("slowest %d, want %d", slowest, n)
	}
}
