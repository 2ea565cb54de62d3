// Package bitset provides a fixed-capacity multi-word bit set used for
// sharer tracking in the directory homes and the auditor's MOSI shadow.
// It replaces the single-uint64 masks that capped those structures at 64
// nodes; iteration remains a deterministic ascending-bit walk, so the
// protocol actions derived from it (invalidation order, stale-sharer scans)
// stay bit-for-bit reproducible at any machine size.
package bitset

import "math/bits"

// Set is a bit set over a fixed universe chosen at New time. The zero value
// is an empty set over an empty universe: Test/Count/Any/Next are safe on
// it, Add and Remove are not.
type Set []uint64

// New returns an empty set able to hold bits [0, n).
func New(n int) Set {
	return make(Set, Words(n))
}

// Words returns how many words a set holding bits [0, n) takes.
func Words(n int) int { return (n + 63) / 64 }

// Add sets bit i.
func (s Set) Add(i int) { s[i>>6] |= 1 << uint(i&63) }

// Remove clears bit i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

// Test reports whether bit i is set. Bits outside the universe read false.
func (s Set) Test(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears every bit.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// SetOnly resets the set to contain exactly bit i.
func (s Set) SetOnly(i int) {
	s.Reset()
	s.Add(i)
}

// Next returns the smallest set bit >= i, or -1 when none remains. The
// ascending order makes loops over a set deterministic:
//
//	for b := s.Next(0); b >= 0; b = s.Next(b + 1) { ... }
func (s Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	if word := s[w] >> uint(i&63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}
