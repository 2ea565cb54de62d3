package system

import (
	"testing"
	"unsafe"

	"scorpio/internal/trace"
)

// TestIDStreamIsOneCacheLine pins the packet-ID stream's padding: streams
// sit side by side and each is advanced by its controller's shard.
func TestIDStreamIsOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(idStream{}); s != 64 {
		t.Fatalf("idStream is %d bytes, want one 64-byte cache line", s)
	}
}

// TestSlabsStartOnCacheLines builds a 16×16 SCORPIO machine on two workers
// and checks that each padded slab starts on a 64-byte boundary, so that
// with its cache-line stride no two instances share a line. At this size
// every such slab is an allocation of 32 KB or more, which the allocator
// places on whole pages.
func TestSlabsStartOnCacheLines(t *testing.T) {
	prof, err := trace.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(prof)
	opt.Core = opt.Core.WithMeshSize(16, 16)
	opt.Workers = 2
	s, err := NewScorpio(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kernel.StopWorkers()
	mesh := s.Net.Mesh()
	for _, c := range []struct {
		name string
		at   unsafe.Pointer
	}{
		{"noc.Link", unsafe.Pointer(mesh.InjectLink(0))},
		{"noc.Router", unsafe.Pointer(mesh.Router(0))},
		{"noc.Terminal", unsafe.Pointer(mesh.Terminal(0))},
		{"nic.NIC", unsafe.Pointer(s.Net.NIC(0))},
		{"coherence.L2Controller", unsafe.Pointer(s.L2s[0])},
		{"trace.Injector", unsafe.Pointer(s.Injectors[0])},
	} {
		if a := uintptr(c.at); a%64 != 0 {
			t.Errorf("%s slab starts at %#x, %d bytes past a cache-line boundary", c.name, a, a%64)
		}
	}
}
