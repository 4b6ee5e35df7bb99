package epoch

import (
	"sync"
	"testing"
)

// TestConcurrentRegisterRelease registers workers from many goroutines at
// once, mixing pooled IDs with fresh ones, and checks that no two live
// workers share an ID, that no published worker slot is nil, and that the
// next advance collects a block buffered by every worker. Register used to
// read its fresh ID after dropping the pool lock, so two callers could
// take the same ID: one slot stayed nil (crashing the advancer) or one
// worker was overwritten and its buffered blocks were never persisted.
func TestConcurrentRegisterRelease(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 100
	}
	const goroutines = 16
	for r := 0; r < rounds; r++ {
		_, s := newManual(t, 1<<16)
		var pooled []*Worker
		for i := 0; i < goroutines/4; i++ {
			pooled = append(pooled, s.Register())
		}
		for _, w := range pooled {
			s.Release(w)
		}
		start := make(chan struct{})
		workers := make([]*Worker, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				w := s.Register()
				putKV(w, uint64(g), uint64(g)+1)
				if g%2 == 1 {
					// Churn the pool while others are still registering.
					s.Release(w)
					w = s.Register()
				}
				workers[g] = w
			}(g)
		}
		close(start)
		wg.Wait()

		seen := make(map[int]bool)
		for _, w := range workers {
			if seen[w.ID()] {
				t.Fatalf("round %d: worker ID %d handed out twice", r, w.ID())
			}
			seen[w.ID()] = true
		}
		n := int(s.nWorkers.Load())
		if n != goroutines {
			t.Fatalf("round %d: %d worker slots published, want %d", r, n, goroutines)
		}
		for i := 0; i < n; i++ {
			if s.workers[i] == nil {
				t.Fatalf("round %d: worker slot %d published nil", r, i)
			}
		}
		s.Sync()
		if got := s.Stats().FlushedBlocks; got != goroutines {
			t.Fatalf("round %d: advance flushed %d blocks, want one per worker (%d)", r, got, goroutines)
		}
	}
}
