// Package ring provides the circular queues the simulator's per-cycle hot
// paths run on. A Ring never moves its elements and, once at capacity, never
// allocates: Push writes into a fixed backing array, PopFront zeroes the
// vacated slot (so pooled pointers are not retained) and advances a head
// index. This replaces the `q = append(q, x)` / `q = q[1:]` slice idiom,
// whose sliding window re-allocates the backing array once per capacity's
// worth of pops.
//
// Two flavours exist:
//
//   - NewFixed: the capacity is a hard bound guaranteed by some external
//     invariant (the NoC's credit protocol, a config depth). Exceeding it is
//     a protocol violation and panics.
//   - New: the capacity is only an expectation; Push grows the ring by
//     doubling when full. Steady-state traffic that respects the expected
//     bound never grows.
package ring

import "fmt"

// Ring is a FIFO circular buffer. The zero value is an empty, growable ring;
// prefer New/NewFixed so the backing array is allocated once up front.
type Ring[T any] struct {
	buf   []T
	head  int
	n     int
	fixed bool
}

// New returns a growable ring pre-sized to the expected capacity.
func New[T any](capacity int) Ring[T] {
	return In(make([]T, Slots(capacity)))
}

// NewFixed returns a fixed-capacity ring; Push past the capacity panics.
func NewFixed[T any](capacity int) Ring[T] {
	return FixedIn(make([]T, Slots(capacity)))
}

// Slots returns the backing length New and NewFixed give a ring of the
// expected capacity: at least one slot.
func Slots(capacity int) int { return max(capacity, 1) }

// In returns an empty growable ring over buf, a piece its owner cut from a
// slab; growth moves the ring to a new array of its own.
func In[T any](buf []T) Ring[T] { return Ring[T]{buf: buf} }

// FixedIn returns an empty ring of capacity len(buf) over buf; Push past
// the capacity panics.
func FixedIn[T any](buf []T) Ring[T] { return Ring[T]{buf: buf, fixed: true} }

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Push appends v at the tail. A full fixed ring panics (the caller's
// flow-control invariant was violated); a full growable ring doubles.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		if r.fixed {
			panic(fmt.Sprintf("ring: fixed ring overflow (cap %d)", len(r.buf)))
		}
		r.grow(2*len(r.buf) + 1)
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// Front returns the head element without removing it; the ring must not be
// empty.
func (r *Ring[T]) Front() T {
	if r.n == 0 {
		panic("ring: Front on empty ring")
	}
	return r.buf[r.head]
}

// PopFront removes and returns the head element, zeroing its slot so the
// ring does not retain pointers to recycled objects.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("ring: PopFront on empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// At returns the i-th element from the head (0 = front).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("ring: At(%d) out of range [0,%d)", i, r.n))
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// RemoveAt deletes and returns the i-th element from the head, preserving
// the order of the others by shifting the tail side down one slot.
func (r *Ring[T]) RemoveAt(i int) T {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("ring: RemoveAt(%d) out of range [0,%d)", i, r.n))
	}
	v := r.buf[(r.head+i)%len(r.buf)]
	for j := i; j < r.n-1; j++ {
		r.buf[(r.head+j)%len(r.buf)] = r.buf[(r.head+j+1)%len(r.buf)]
	}
	var zero T
	r.buf[(r.head+r.n-1)%len(r.buf)] = zero
	r.n--
	return v
}

// Reset empties the ring, zeroing every occupied slot.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)%len(r.buf)] = zero
	}
	r.head, r.n = 0, 0
}

// grow moves the elements into a larger backing array (growable rings only).
func (r *Ring[T]) grow(capacity int) {
	buf := make([]T, capacity)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
