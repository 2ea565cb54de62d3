package nic

import (
	"testing"
	"unsafe"
)

// TestMeshPortStride pins the mesh port's stride at whole cache lines: the
// ports of a NIC set's extra meshes sit side by side in one slab and are
// written by different shards every cycle.
func TestMeshPortStride(t *testing.T) {
	if s := unsafe.Sizeof(meshPort{}); s%64 != 0 {
		t.Fatalf("meshPort is %d bytes, want a cache-line multiple", s)
	}
}
