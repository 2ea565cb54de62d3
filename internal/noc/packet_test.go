package noc

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestDeliveredCountsDown checks the recycling rule: a unicast packet's
// every delivery is its last, while a broadcast's last delivery is the one
// that uses up its ExpectDeliveries count, and one more panics.
func TestDeliveredCountsDown(t *testing.T) {
	uni := &Packet{ID: 1}
	for i := 0; i < 3; i++ {
		if !uni.Delivered() {
			t.Fatal("a unicast packet's delivery must be its last")
		}
	}
	b := &Packet{ID: 2, Broadcast: true}
	b.ExpectDeliveries(3)
	for i, want := range []bool{false, false, true} {
		if got := b.Delivered(); got != want {
			t.Fatalf("delivery %d of 3 reported last=%v, want %v", i+1, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a fourth delivery of a 3-delivery broadcast must panic")
		}
	}()
	b.Delivered()
}

// TestDeliveredOnceAcrossGoroutines delivers one broadcast from as many
// goroutines as it expects deliveries, as nodes on different kernel workers
// do: exactly one of them must see the last delivery.
func TestDeliveredOnceAcrossGoroutines(t *testing.T) {
	const nodes = 64
	for round := 0; round < 20; round++ {
		p := &Packet{ID: 1, Broadcast: true}
		p.ExpectDeliveries(nodes)
		var last atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < nodes; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if p.Delivered() {
					last.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := last.Load(); n != 1 {
			t.Fatalf("round %d: %d goroutines saw the last delivery, want 1", round, n)
		}
	}
}
