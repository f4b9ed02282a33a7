package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentUpdates hammers one counter and one
// histogram from many goroutines — the shape concurrent streams
// produce. Run under -race (CI does) this is the
// registry's data-race proof; the totals prove no update is lost.
func TestRegistryConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve handles inside the goroutine: lookup must also be
			// goroutine-safe, returning the same instrument to everyone.
			c := reg.Counter("rows")
			h := reg.Histogram("lat_ns")
			for i := 0; i < perG; i++ {
				c.Add(2)
				h.Observe(int64(i%100) * int64(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("rows").Value(); got != 2*goroutines*perG {
		t.Errorf("counter = %d, want %d", got, 2*goroutines*perG)
	}
	if got := reg.Histogram("lat_ns").Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestTracerConcurrentSpans proves span creation and completion are
// goroutine-safe: many goroutines open and end child spans of a shared
// parent, as concurrent streams do under a live run span.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	parent := tr.Root("op", "exec")
	const workers = 8
	const spansPer = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				sp := parent.ChildTID("query", w+1)
				sp.SetAttr("i", i)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	parent.End()
	if got := tr.Len(); got != workers*spansPer+1 {
		t.Fatalf("recorded %d spans, want %d", got, workers*spansPer+1)
	}
	seen := map[uint64]bool{}
	for _, s := range tr.Snapshot() {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}
