// Package slab hands out the per-instance pieces of one backing slice, so a
// machine build allocates each component kind once rather than once per
// node, port or link.
package slab

import "unsafe"

// Go's allocator gives an object of 32 KB or more whole pages of its own,
// and one of a few KB a slot in a size class whose span holds several: a
// lone slab of, say, 9 KB pins a 56 KB span, and the span's empty slots
// count as live heap until the next collection. Summed over a machine's
// dozens of such slabs, that pushed a 6×6 build past the collector's
// trigger. So a slab smaller than largeBytes is made in chunks of one page
// (a size class with one object per span) instead, and a last chunk of
// more than smallBytes takes a whole page too, at the cost of a few more
// allocations at small mesh sizes.
const (
	largeBytes = 32 << 10
	smallBytes = 2 << 10
	// chunkBytes is one page less the 8-byte header the allocator puts in
	// front of an object that holds pointers.
	chunkBytes = 8<<10 - 8
)

// Slab is a backing slice cut front to back into pieces.
type Slab[T any] struct {
	buf   []T
	left  int // elements still to hand out
	per   int // elements per chunk
	small int // most elements a last chunk holds without taking a page
}

// Make returns a slab of n zeroed elements: one allocation when they take
// largeBytes or more, else page-sized chunks.
func Make[T any](n int) Slab[T] {
	size := int(unsafe.Sizeof(*new(T)))
	if size == 0 || n*size >= largeBytes {
		return Slab[T]{buf: make([]T, n), left: n}
	}
	return Slab[T]{left: n, per: max(1, chunkBytes/size), small: smallBytes / size}
}

// Cut takes the next n elements as one instance's piece. The piece's
// capacity ends where the piece does (a full slice expression), so an
// append to a full piece reallocates it instead of writing into the next
// instance's piece.
func (s *Slab[T]) Cut(n int) []T {
	if n > len(s.buf) {
		// Start the next chunk; a piece never straddles two.
		if n > s.left {
			panic("slab: cut past the end of the slab")
		}
		c := max(s.per, n)
		if s.left <= s.small {
			c = s.left
		}
		s.buf = make([]T, c)
	}
	p := s.buf[:n:n]
	s.buf = s.buf[n:]
	s.left -= n
	return p
}

// Next takes the next element.
func (s *Slab[T]) Next() *T { return &s.Cut(1)[0] }
