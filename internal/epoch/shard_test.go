package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/durability"
	"bdhtm/internal/nvm"
)

// putRetire inserts one KV block and immediately retires it in a later
// operation, driving both the persist and the retire buffers.
func putRetire(w *Worker, key uint64) {
	b := putKV(w, key, key*10)
	w.BeginOp()
	w.PRetire(b)
	w.EndOp()
}

func TestShardedAdvancePreservesSemantics(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		h := nvm.New(nvm.Config{Words: 1 << 18})
		s := New(h, Config{Manual: true, Shards: shards})
		ws := make([]*Worker, 8)
		for i := range ws {
			ws[i] = s.Register()
		}
		for i, w := range ws {
			for k := uint64(0); k < 8; k++ {
				putKV(w, uint64(i)*100+k, k)
			}
		}
		s.Sync()
		s.SimulateCrash(nvm.CrashOptions{})
		_, got := recoverAll(h)
		if len(got) != 64 {
			t.Fatalf("shards=%d: recovered %d blocks, want 64", shards, len(got))
		}
	}
}

func TestShardedStatsParity(t *testing.T) {
	const shards = 4
	h := nvm.New(nvm.Config{Words: 1 << 18})
	s := New(h, Config{Manual: true, Shards: shards})
	defer s.Stop()
	ws := make([]*Worker, 8) // two workers per shard
	for i := range ws {
		ws[i] = s.Register()
	}
	for i, w := range ws {
		for k := uint64(0); k < 4+uint64(i); k++ {
			putRetire(w, uint64(i)*100+k)
		}
	}
	s.Sync()
	s.AdvanceOnce() // close the retire epoch so frees land
	s.AdvanceOnce()

	st := s.Stats()
	if st.Shards != shards || len(st.PerShard) != shards {
		t.Fatalf("Shards=%d PerShard len=%d, want %d", st.Shards, len(st.PerShard), shards)
	}
	var f, r, fr int64
	for i, ps := range st.PerShard {
		if ps.FreedBlocks > ps.RetiredBlocks {
			t.Fatalf("shard %d: freed %d > retired %d", i, ps.FreedBlocks, ps.RetiredBlocks)
		}
		f += ps.FlushedBlocks
		r += ps.RetiredBlocks
		fr += ps.FreedBlocks
	}
	if f != st.FlushedBlocks || r != st.RetiredBlocks || fr != st.FreedBlocks {
		t.Fatalf("per-shard sums (%d,%d,%d) != aggregates (%d,%d,%d)",
			f, r, fr, st.FlushedBlocks, st.RetiredBlocks, st.FreedBlocks)
	}
	// Workers 0..7 map to shards round-robin; every shard saw traffic.
	for i, ps := range st.PerShard {
		if ps.RetiredBlocks == 0 {
			t.Fatalf("shard %d retired nothing; worker->shard mapping broken", i)
		}
	}
	want := int64(0)
	for i := 0; i < 8; i++ {
		want += 4 + int64(i)
	}
	if st.RetiredBlocks != want || st.FreedBlocks != want {
		t.Fatalf("retired=%d freed=%d, want both %d", st.RetiredBlocks, st.FreedBlocks, want)
	}
}

// TestAsyncManualPipelinesFlush pins the pipelined advance for every
// durability engine and both shard widths: each AdvanceOnce publishes the
// next epoch and then persists the one it closed, so after every advance
// the watermark trails the active epoch by exactly one, the engine has
// committed exactly one epoch per advance, and a write is durable after
// the single advance that closes its epoch.
func TestAsyncManualPipelinesFlush(t *testing.T) {
	for _, engine := range durability.Names() {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", engine, shards), func(t *testing.T) {
				h := nvm.New(nvm.Config{Words: 1 << 20})
				cfg := Config{Manual: true, Shards: shards, Engine: engine}
				s := New(h, cfg)
				w := s.Register()
				const advances = 6
				for i := uint64(0); i < advances; i++ {
					putKV(w, i, i*10)
					s.AdvanceOnce()
					g, p := s.GlobalEpoch(), s.PersistedEpoch()
					if p != g-1 {
						t.Fatalf("advance %d: global=%d persisted=%d, want persisted == global-1", i+1, g, p)
					}
					if c := s.Stats().EngineCommits; c != int64(i+1) {
						t.Fatalf("advance %d: engine commits = %d, want %d", i+1, c, i+1)
					}
				}
				s.SimulateCrash(nvm.CrashOptions{})
				got := make(map[uint64]uint64)
				Recover(h, cfg, func(r BlockRecord) { got[r.Block.Key()] = r.Block.Value() })
				for k := uint64(0); k < advances; k++ {
					if got[k] != k*10 {
						t.Fatalf("recovered %v, want key %d -> %d", got, k, k*10)
					}
				}
			})
		}
	}
}

func TestAsyncBackgroundAdvancer(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 18})
	s := New(h, Config{EpochLength: time.Millisecond, Shards: 2})
	w := s.Register()
	for k := uint64(0); k < 32; k++ {
		putKV(w, k, k+1)
	}
	s.Sync()
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	for k := uint64(0); k < 32; k++ {
		if got[k] != k+1 {
			t.Fatalf("recovered %v, missing key %d", len(got), k)
		}
	}
}

// TestAsyncWindowInvariant hammers the background advancer while
// polling the two clocks: the recovery window P >= global-2 must hold at
// every instant, including while an advance is persisting the epoch it
// just closed.
func TestAsyncWindowInvariant(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 22})
	s := New(h, Config{EpochLength: 200 * time.Microsecond, Shards: 4})
	defer s.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := s.Register()
			defer s.Release(w)
			for k := uint64(0); k < 4000; k++ {
				putRetire(w, uint64(i)<<32|k)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		g := s.GlobalEpoch()
		p := s.PersistedEpoch()
		// p is loaded after g, and only ever grows, so p >= g-2 at the
		// instant g was read implies the check below.
		if p+2 < g {
			t.Fatalf("window violated: global=%d persisted=%d", g, p)
		}
	}
}

// TestWorkerChurnNoLostRetires is the worker-churn property test: workers
// register, retire blocks, and release their handles back to the pool
// while epochs advance concurrently. Whatever the interleaving, every
// retired block must eventually be freed exactly once (palloc panics on
// double-free) and none may leak in an orphaned buffer.
func TestWorkerChurnNoLostRetires(t *testing.T) {
	for _, cfg := range []Config{
		{Manual: true, Shards: 1},
		{Manual: true, Shards: 4},
	} {
		cfg := cfg
		h := nvm.New(nvm.Config{Words: 1 << 22})
		s := New(h, cfg)
		var retired atomic.Int64
		var stop atomic.Bool
		var churn sync.WaitGroup

		// Churners: short-lived worker registrations, bounded so the heap
		// cannot outrun deferred reclamation.
		for g := 0; g < 6; g++ {
			churn.Add(1)
			go func(g int) {
				defer churn.Done()
				for r := 0; r < 250; r++ {
					w := s.Register()
					for k := 0; k < 8; k++ {
						key := uint64(g)<<40 | uint64(r)<<16 | uint64(k)
						b := putKV(w, key, key)
						w.BeginOp()
						w.PRetire(b)
						w.EndOp()
						retired.Add(1)
					}
					s.Release(w)
				}
			}(g)
		}
		// Advancer runs until the churners finish.
		advDone := make(chan struct{})
		go func() {
			defer close(advDone)
			for !stop.Load() {
				s.AdvanceOnce()
			}
		}()
		churn.Wait()
		stop.Store(true)
		<-advDone

		// Drain: two more advances free everything retired so far.
		s.Sync()
		s.AdvanceOnce()
		s.AdvanceOnce()
		st := s.Stats()
		if st.RetiredBlocks != retired.Load() {
			t.Fatalf("%+v: Stats retired=%d, want %d", cfg, st.RetiredBlocks, retired.Load())
		}
		if st.FreedBlocks != st.RetiredBlocks {
			t.Fatalf("%+v: freed=%d retired=%d; retired blocks lost in churn",
				cfg, st.FreedBlocks, st.RetiredBlocks)
		}
		if live := s.Allocator().LiveBlocks(); live != 0 {
			t.Fatalf("%+v: %d live blocks after full drain", cfg, live)
		}
		if p, g := s.PersistedEpoch(), s.GlobalEpoch(); p+2 < g {
			t.Fatalf("%+v: window violated at end: global=%d persisted=%d", cfg, g, p)
		}
		s.Stop()
	}
}

// TestStatsConsistentSnapshot is the regression test for the torn
// freed/retired read: Stats taken while advances and retires are in full
// flight must never show freed > retired (in aggregate or per shard) and
// per-shard columns must always sum to the aggregates.
func TestStatsConsistentSnapshot(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 22})
	s := New(h, Config{Manual: true, Shards: 4})
	defer s.Stop()
	var stop atomic.Bool
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			w := s.Register()
			defer s.Release(w)
			for k := uint64(0); k < 4000; k++ {
				putRetire(w, uint64(g)<<32|k)
			}
		}(g)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.AdvanceOnce()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		churn.Wait()
		stop.Store(true)
	}()

	for !stop.Load() {
		st := s.Stats()
		if st.FreedBlocks > st.RetiredBlocks {
			t.Errorf("torn snapshot: freed=%d > retired=%d", st.FreedBlocks, st.RetiredBlocks)
			stop.Store(true)
			break
		}
		var f, fr int64
		for i, ps := range st.PerShard {
			if ps.FreedBlocks > ps.RetiredBlocks {
				t.Errorf("shard %d torn: freed=%d > retired=%d", i, ps.FreedBlocks, ps.RetiredBlocks)
				stop.Store(true)
			}
			f += ps.FlushedBlocks
			fr += ps.FreedBlocks
		}
		if f != st.FlushedBlocks || fr != st.FreedBlocks {
			t.Errorf("per-shard sums (%d,%d) != aggregates (%d,%d)",
				f, fr, st.FlushedBlocks, st.FreedBlocks)
			stop.Store(true)
		}
	}
	wg.Wait()
}

// BenchmarkAdvance measures one epoch advance closing a write-heavy
// epoch (8 workers x 16 tracked blocks) at shard widths 1 and 4, under
// the Optane latency profile so flush fan-out parallelism shows.
func BenchmarkAdvance(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			h := nvm.New(nvm.Config{Words: 1 << 24, Latency: nvm.OptaneProfile})
			s := New(h, Config{Manual: true, Shards: shards})
			defer s.Stop()
			ws := make([]*Worker, 8)
			for i := range ws {
				ws[i] = s.Register()
			}
			var key uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				blocks := make([]Block, 0, 8*16)
				for _, w := range ws {
					for k := 0; k < 16; k++ {
						key++
						blocks = append(blocks, putKV(w, key, key))
					}
				}
				b.StartTimer()
				s.AdvanceOnce()
				b.StopTimer()
				// Retire outside the timed region to keep the heap small.
				w := ws[0]
				for _, blk := range blocks {
					w.BeginOp()
					w.PRetire(blk)
					w.EndOp()
				}
				s.Sync()
				b.StartTimer()
			}
			st := s.Stats()
			b.ReportMetric(float64(st.AdvanceP99NS), "p99-ns")
		})
	}
}
