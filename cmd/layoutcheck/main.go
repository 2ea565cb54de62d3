// layoutcheck is a fieldalignment-style guard over the simulator's hot
// structs. It fails (exit 1) when:
//
//   - a struct with a pinned size contract drifts (Flit and cache.Line must
//     stay 32 bytes — two per cache line — and the false-sharing-padded Link
//     and Activity must stay cache-line multiples), or
//   - a checked struct wastes alignment padding that a field reorder would
//     reclaim (compiler-inserted holes not covered by an explicit blank
//     `_ [N]byte` pad, which marks deliberate false-sharing padding).
//
// Wasted bytes are computed against a greedy repacking: fields sorted by
// alignment then size pack with no interior holes, so any excess of the real
// size over (packed size + intentional pad) is reclaimable. Unexported hot
// structs (sim's scheduling unit, noc's router internals) can't be reached
// by reflection from here; they are pinned by in-package layout tests
// instead.
package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"

	"scorpio/internal/cache"
	"scorpio/internal/noc"
	"scorpio/internal/sim"
	"scorpio/internal/stats"
)

// intentionalPad sums blank `_ [N]byte`-style fields: padding the author
// asked for, excluded from the waste computation.
func intentionalPad(t reflect.Type) uintptr {
	var pad uintptr
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "_" {
			pad += f.Type.Size()
		}
	}
	return pad
}

// packedSize returns the size the struct would have if its non-pad fields
// were reordered for dense packing: greedy by alignment then size, final
// size rounded up to the struct's alignment.
func packedSize(t reflect.Type) uintptr {
	type fld struct {
		size  uintptr
		align uintptr
	}
	var fs []fld
	var maxAlign uintptr = 1
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "_" {
			continue
		}
		a := uintptr(f.Type.Align())
		if a > maxAlign {
			maxAlign = a
		}
		fs = append(fs, fld{f.Type.Size(), a})
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].align != fs[j].align {
			return fs[i].align > fs[j].align
		}
		return fs[i].size > fs[j].size
	})
	var off uintptr
	for _, f := range fs {
		if f.align > 0 && off%f.align != 0 {
			off += f.align - off%f.align
		}
		off += f.size
	}
	if off%maxAlign != 0 {
		off += maxAlign - off%maxAlign
	}
	return off
}

func main() {
	fail := false
	bad := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "layoutcheck: "+format+"\n", args...)
		fail = true
	}

	// Pinned size contracts.
	if s := reflect.TypeOf(noc.Flit{}).Size(); s != 32 {
		bad("noc.Flit is %d bytes, want 32 (two per 64-byte cache line)", s)
	}
	if s := reflect.TypeOf(cache.Line{}).Size(); s != 32 {
		bad("cache.Line is %d bytes, want 32 (two per 64-byte cache line)", s)
	}
	if s := reflect.TypeOf(noc.Link{}).Size(); s%64 != 0 {
		bad("noc.Link is %d bytes, want a cache-line multiple (false-sharing pad)", s)
	}
	if s := reflect.TypeOf(sim.Activity{}).Size(); s%64 != 0 {
		bad("sim.Activity is %d bytes, want a cache-line multiple (false-sharing pad)", s)
	}

	// Hole checks on the exported hot structs of cache, noc, sim and stats.
	for _, v := range []any{
		cache.Line{},
		noc.Flit{}, noc.Credit{}, noc.Link{}, noc.Packet{},
		noc.RouterStats{}, noc.Arena{}, noc.Config{}, noc.Terminal{},
		sim.Activity{}, sim.RNG{},
		stats.Counter{}, stats.Mean{}, stats.Histogram{}, stats.Breakdown{},
	} {
		t := reflect.TypeOf(v)
		real, packed, pad := t.Size(), packedSize(t), intentionalPad(t)
		if waste := int64(real) - int64(packed) - int64(pad); waste > 0 {
			bad("%s.%s wastes %d bytes to alignment holes (size %d, packs to %d + %d intentional pad) — reorder its fields",
				t.PkgPath(), t.Name(), waste, real, packed, pad)
		}
	}

	if fail {
		os.Exit(1)
	}
	fmt.Println("layoutcheck: hot-struct layouts OK")
}
