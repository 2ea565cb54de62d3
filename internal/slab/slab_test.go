package slab

import "testing"

// TestCutBoundsCapacity pins the cutting rule: an append to a full piece
// must leave the next piece untouched, in a chunked slab and a single one.
func TestCutBoundsCapacity(t *testing.T) {
	for _, n := range []int{6, 1 << 14} {
		s := Make[int](n)
		a, b := s.Cut(3), s.Cut(3)
		b[0] = 7
		a = append(a, 1)
		if b[0] != 7 {
			t.Fatalf("slab of %d: append to a full piece wrote %d into the next piece", n, b[0])
		}
		if len(a) != 4 {
			t.Fatalf("slab of %d: len(a) = %d, want 4", n, len(a))
		}
	}
}

// TestCutHandsOutEverything cuts a chunked slab into pieces that do not
// divide a chunk and checks that every piece is its own, zeroed memory.
func TestCutHandsOutEverything(t *testing.T) {
	const pieces, each = 700, 3 // 2,100 ints: 16.8 KB, made in chunks
	s := Make[int](pieces * each)
	var all [][]int
	for i := 0; i < pieces; i++ {
		p := s.Cut(each)
		for j := range p {
			if p[j] != 0 {
				t.Fatalf("piece %d not zeroed", i)
			}
			p[j] = i
		}
		all = append(all, p)
	}
	for i, p := range all {
		for _, v := range p {
			if v != i {
				t.Fatalf("piece %d overwritten by piece %d", i, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cutting past the end did not panic")
		}
	}()
	s.Cut(1)
}

func TestNextWalksTheSlab(t *testing.T) {
	s := Make[int](2)
	p, q := s.Next(), s.Next()
	if p == q {
		t.Fatal("Next handed out one element twice")
	}
}
