package htm

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/nvm"
)

// disjointWords returns n word pointers, each on its own cache line and
// each mapping to a distinct lock-table slot, so tests can reason about
// exactly which lines conflict.
func disjointWords(tb testing.TB, tm *TM, n int) []*uint64 {
	tb.Helper()
	buf := make([]uint64, 8*(4*n+8))
	seen := make(map[uint64]bool)
	var out []*uint64
	for i := 0; i+8 <= len(buf) && len(out) < n; i += 8 {
		p := &buf[i]
		if idx := tm.slotIdx(lineKey(p)); !seen[idx] {
			seen[idx] = true
			out = append(out, p)
		}
	}
	if len(out) < n {
		tb.Fatalf("could not find %d slot-disjoint lines", n)
	}
	return out
}

// forEachMode runs fn against a fresh TM in each fallback mode.
func forEachMode(t *testing.T, fn func(t *testing.T, tm *TM)) {
	for _, mode := range []struct {
		name   string
		global bool
	}{{"hybrid", false}, {"global", true}} {
		t.Run(mode.name, func(t *testing.T) {
			fn(t, New(Config{GlobalFallback: mode.global}))
		})
	}
}

// forceSlow sends an Atomic body down the slow path: on the fast path it
// aborts with the deterministic capacity cause, which skips the retry
// budget.
func forceSlow(tx *Tx) {
	if !tx.Slow() {
		tx.abort(CauseCapacity, 0)
	}
}

// The headline property of the hybrid slow path: a small transaction on
// lines the fallback never touched commits while the fallback is still
// mid-operation, where the global lock would have aborted it.
func TestDisjointLineProgressDuringFallback(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 2)
	a, b := ws[0], ws[1]
	inSession := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tm.Atomic(nil, func(tx *Tx) {
			tx.Store(a, tx.Load(a)+1)
			once.Do(func() { close(inSession) })
			<-release
		}, SlowPathOnly())
	}()
	<-inSession

	// Progress assertion: disjoint line, slow path in flight.
	if res := tm.attempt(func(tx *Tx) { tx.Store(b, 7) }); !res.Committed {
		t.Fatalf("disjoint-line transaction aborted during fallback: %+v", res)
	}
	// Conflict assertion: the held line aborts the fast path, and the
	// abort is attributed to the fallback session.
	blockedBefore := tm.Stats().FallbackBlocked
	if res := tm.attempt(func(tx *Tx) { tx.Store(a, 9) }); res.Committed {
		t.Fatal("transaction on a fallback-held line committed")
	}
	if got := tm.Stats().FallbackBlocked; got <= blockedBefore {
		t.Fatalf("FallbackBlocked = %d, want > %d", got, blockedBefore)
	}
	// The session's write is buffered until it finishes.
	if atomic.LoadUint64(a) != 0 {
		t.Fatal("fallback write visible before session finished")
	}

	close(release)
	wg.Wait()
	if *a != 1 || *b != 7 {
		t.Fatalf("a,b = %d,%d, want 1,7", *a, *b)
	}
	s := tm.Stats()
	if s.FallbackAcquires != 1 || s.FallbackLines == 0 {
		t.Fatalf("session counters: %+v", s)
	}
}

// Fallback reads lock their line too: a transaction cannot slip a write
// between a fallback read and the session's finish (write skew). Once the
// session ends, the slot reverts and the same transaction commits.
func TestFallbackReadLocksLine(t *testing.T) {
	tm := Default()
	a := disjointWords(t, tm, 1)[0]
	inSession := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tm.Atomic(nil, func(tx *Tx) {
			_ = tx.Load(a) // read-only access still locks the line
			once.Do(func() { close(inSession) })
			<-release
		}, SlowPathOnly())
	}()
	<-inSession
	if res := tm.attempt(func(tx *Tx) { tx.Store(a, 5) }); res.Committed {
		t.Fatal("write to a read-locked line committed mid-session")
	}
	close(release)
	wg.Wait()
	if res := tm.attempt(func(tx *Tx) { tx.Store(a, 5) }); !res.Committed {
		t.Fatalf("write after session release aborted: %+v", res)
	}
	if *a != 5 {
		t.Fatalf("a = %d, want 5", *a)
	}
}

// A session blocked on a line held by another session restarts (releasing
// everything, discarding buffered writes) rather than deadlocking, and
// completes once the holder finishes.
func TestFallbackRestartUnderContention(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 2)
	a, b := ws[0], ws[1]
	inSession := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // holder: pins a's line, then waits
		defer wg.Done()
		tm.Atomic(nil, func(tx *Tx) {
			_ = tx.Load(a)
			once.Do(func() { close(inSession) })
			<-release
		}, SlowPathOnly())
	}()
	<-inSession
	wg.Add(1)
	go func() { // contender: buffers b, then needs a — must restart
		defer wg.Done()
		tm.Atomic(nil, func(tx *Tx) {
			tx.Store(b, 1)
			tx.Store(a, tx.Load(a)+1)
		}, SlowPathOnly())
	}()
	for tm.Stats().FallbackRestarts == 0 {
		time.Sleep(time.Millisecond)
	}
	// Restarts discarded the contender's buffered write to b.
	if atomic.LoadUint64(b) != 0 {
		t.Fatal("buffered write leaked across a session restart")
	}
	close(release)
	wg.Wait()
	if *a != 1 || *b != 1 {
		t.Fatalf("a,b = %d,%d, want 1,1", *a, *b)
	}
}

// Property test for the lock-order discipline: concurrent sessions that
// acquire overlapping line sets in adversarial (random, often opposite)
// orders neither deadlock nor lose updates.
func TestFallbackLockOrderNoDeadlock(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 8)
	const goroutines = 4
	const iters = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 99))
			for i := 0; i < iters; i++ {
				idxs := rng.Perm(len(ws))[:4]
				tm.Atomic(nil, func(tx *Tx) {
					for _, j := range idxs {
						tx.Store(ws[j], tx.Load(ws[j])+1)
					}
				}, SlowPathOnly())
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, p := range ws {
		total += *p
	}
	if total != goroutines*iters*4 {
		t.Fatalf("total = %d, want %d (lost updates)", total, goroutines*iters*4)
	}
}

// Serializability with both paths live on the same lines, in both fallback
// modes: fast-path and slow-path increments must all survive.
func TestMixedTxFallbackSerializable(t *testing.T) {
	forEachMode(t, func(t *testing.T, tm *TM) {
		ws := disjointWords(t, tm, 4)
		const perG = 400
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			var opts []Option
			if g >= 3 {
				opts = append(opts, SlowPathOnly())
			}
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(id)+1, 3))
				for i := 0; i < perG; i++ {
					j := int(rng.Uint64N(uint64(len(ws))))
					k := (j + 1 + int(rng.Uint64N(uint64(len(ws)-1)))) % len(ws)
					tm.Atomic(nil, func(tx *Tx) {
						tx.Store(ws[j], tx.Load(ws[j])+1)
						tx.Store(ws[k], tx.Load(ws[k])+1)
					}, opts...)
				}
			}(g)
		}
		wg.Wait()
		var total uint64
		for _, p := range ws {
			total += *p
		}
		if total != 6*perG*2 {
			t.Fatalf("total = %d, want %d", total, 6*perG*2)
		}
	})
}

// Global mode is the classic path: the slow-path run holds the TM's lock
// word for its whole body, and its buffered writes land at the end.
func TestGlobalModeSlowPathTakesLock(t *testing.T) {
	tm := New(Config{GlobalFallback: true})
	var x uint64
	res := tm.Atomic(nil, func(tx *Tx) {
		if !tx.Slow() {
			t.Error("SlowPathOnly body ran on the fast path")
		}
		if atomic.LoadUint64(&tm.gword) == 0 {
			t.Error("global-mode slow path did not take the lock")
		}
		tx.Store(&x, 3)
		if atomic.LoadUint64(&x) != 0 {
			t.Error("global-mode store applied before the run finished")
		}
		if tx.Load(&x) != 3 {
			t.Error("global-mode run cannot read its own write")
		}
	}, SlowPathOnly())
	if !res.Committed {
		t.Fatalf("res = %+v", res)
	}
	if tm.gword != 0 {
		t.Fatal("lock still held after the slow path")
	}
	if x != 3 {
		t.Fatalf("x = %d, want 3", x)
	}
}

// Every slow-path run counts one acquire, in both modes: a body that
// always overflows the write set escapes after one capacity abort.
func TestSlowPathCountsOneAcquirePerCall(t *testing.T) {
	forEachMode(t, func(t *testing.T, tm *TM) {
		lines := tm.cfg.MaxWriteLines + 1
		big := make([]uint64, lines*8)
		const calls = 5
		for i := 0; i < calls; i++ {
			res := tm.Atomic(nil, func(tx *Tx) {
				for l := 0; l < lines; l++ {
					tx.Store(&big[l*8], uint64(i+1))
				}
			})
			if !res.Committed {
				t.Fatalf("call %d: %+v", i, res)
			}
		}
		s := tm.Stats()
		if s.FallbackAcquires != calls || s.Capacity != calls || s.Commits != 0 {
			t.Fatalf("stats = %+v, want %d acquires and %d capacity aborts", s, calls, calls)
		}
		if big[0] != calls || big[(lines-1)*8] != calls {
			t.Fatalf("writes lost: first=%d last=%d", big[0], big[(lines-1)*8])
		}
	})
}

// An Abort on the slow path after buffered stores returns its code and
// leaves memory — DRAM words and the NVM heap's lines — untouched, and
// every lock it took released.
func TestSlowPathAbortLeavesNoTrace(t *testing.T) {
	forEachMode(t, func(t *testing.T, tm *TM) {
		h := nvm.New(nvm.Config{Words: 1 << 12})
		ws := disjointWords(t, tm, 2)
		*ws[0] = 10
		res := tm.Atomic(nil, func(tx *Tx) {
			forceSlow(tx)
			tx.Store(ws[0], tx.Load(ws[0])+1)
			tx.Store(ws[1], 7)
			tx.StoreAddr(h, 64, 42)
			tx.Abort(0x5A)
		})
		if res.Committed || res.Cause != CauseExplicit || res.Code != 0x5A {
			t.Fatalf("res = %+v, want explicit/0x5A", res)
		}
		if *ws[0] != 10 || *ws[1] != 0 || h.Load(64) != 0 || h.DirtyLine(64) {
			t.Fatalf("aborted slow path left a trace: %d %d heap=%d dirty=%v",
				*ws[0], *ws[1], h.Load(64), h.DirtyLine(64))
		}
		if tm.held.Load() != 0 || tm.gword != 0 {
			t.Fatalf("locks left held: held=%d gword=%d", tm.held.Load(), tm.gword)
		}
		// The lines are free again: a transaction on them commits.
		if res := tm.attempt(func(tx *Tx) { tx.Store(ws[0], 11); tx.Store(ws[1], 1) }); !res.Committed {
			t.Fatalf("lines still locked after the abort: %+v", res)
		}
		if s := tm.Stats(); s.FallbackAcquires != 1 || s.FallbackRestarts != 0 {
			t.Fatalf("stats = %+v", s)
		}
	})
}

// One body gives the same result whether it commits on the fast path or
// is forced down the slow one.
func TestSameBodyBothPaths(t *testing.T) {
	forEachMode(t, func(t *testing.T, tm *TM) {
		type world struct {
			h    *nvm.Heap
			acct []uint64
		}
		setup := func() world {
			w := world{h: nvm.New(nvm.Config{Words: 1 << 12}), acct: make([]uint64, 4*8)}
			for i := 0; i < 4; i++ {
				w.acct[i*8] = uint64(100 * (i + 1))
				w.h.Store(nvm.Addr(64*i), uint64(i))
			}
			return w
		}
		// Move 30 from account 1 to account 3, log the move in NVM, and
		// report the new balances.
		run := func(w world, slow bool) (out [2]uint64, committed bool) {
			res := tm.Atomic(nil, func(tx *Tx) {
				out = [2]uint64{}
				if slow {
					forceSlow(tx)
				}
				from, to := &w.acct[1*8], &w.acct[3*8]
				f := tx.Load(from)
				if f < 30 {
					tx.Abort(1)
				}
				tx.Store(from, f-30)
				tx.Store(to, tx.Load(to)+30)
				n := tx.LoadAddr(w.h, 0)
				tx.StoreAddr(w.h, 0, n+1)
				tx.StoreAddr(w.h, nvm.Addr(8+n), 30)
				out = [2]uint64{tx.Load(from), tx.Load(to)}
			})
			return out, res.Committed
		}
		fast, slow := setup(), setup()
		before := tm.Stats()
		outF, okF := run(fast, false)
		mid := tm.Stats()
		outS, okS := run(slow, true)
		end := tm.Stats()
		if !okF || !okS || outF != outS {
			t.Fatalf("fast %v/%v vs slow %v/%v", outF, okF, outS, okS)
		}
		if d := mid.Sub(before); d.Commits != 1 || d.FallbackAcquires != 0 {
			t.Fatalf("fast run did not commit on the fast path: %+v", d)
		}
		if d := end.Sub(mid); d.FallbackAcquires != 1 {
			t.Fatalf("slow run did not take the slow path: %+v", d)
		}
		for i := range fast.acct {
			if fast.acct[i] != slow.acct[i] {
				t.Fatalf("DRAM word %d: fast %d slow %d", i, fast.acct[i], slow.acct[i])
			}
		}
		for a := nvm.Addr(0); a < 256; a++ {
			if fast.h.Load(a) != slow.h.Load(a) {
				t.Fatalf("heap word %d: fast %d slow %d", a, fast.h.Load(a), slow.h.Load(a))
			}
		}
	})
}

// A foreign panic in a slow-path body propagates, and the session's locks
// (lines, global word, escalation mutex) are released on the way out.
func TestSlowPathPanicReleasesLocks(t *testing.T) {
	forEachMode(t, func(t *testing.T, tm *TM) {
		var x uint64
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate")
				}
			}()
			tm.Atomic(nil, func(tx *Tx) {
				tx.Store(&x, tx.Load(&x)+1)
				panic("user bug")
			}, SlowPathOnly())
		}()
		if res := tm.Atomic(nil, func(tx *Tx) { tx.Store(&x, 2) }, SlowPathOnly()); !res.Committed || x != 2 {
			t.Fatalf("slow path after panic: res=%+v x=%d", res, x)
		}
		if res := tm.attempt(func(tx *Tx) { tx.Store(&x, 3) }); !res.Committed {
			t.Fatalf("line still locked after panic: %+v", res)
		}
	})
}

// Regression for the drain rewrite: every lock window (commits, direct
// stores, slow-path finishes and aborts) must balance tm.held back to zero, or a later
// drainCommits spins forever.
func TestHeldCounterBalanced(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 11))
			for i := 0; i < 200; i++ {
				p := ws[rng.Uint64N(uint64(len(ws)))]
				switch rng.Uint64N(5) {
				case 0:
					tm.attempt(func(tx *Tx) { tx.Store(p, tx.Load(p)+1) })
				case 1:
					tm.attempt(func(tx *Tx) { tx.Abort(1) })
				case 2:
					tm.DirectStore(p, 1)
				case 3:
					tm.Atomic(nil, func(tx *Tx) { tx.Store(p, tx.Load(p)+1); tx.Abort(1) }, SlowPathOnly())
				default:
					tm.Atomic(nil, func(tx *Tx) { tx.Store(p, tx.Load(p)+1) }, SlowPathOnly())
				}
			}
		}(g)
	}
	wg.Wait()
	if got := tm.held.Load(); got != 0 {
		t.Fatalf("held = %d after quiescence, want 0", got)
	}
}

// drainCommits must block while a lock window is open and return once it
// closes.
func TestDrainCommitsWaitsForWindow(t *testing.T) {
	tm := Default()
	var x uint64
	slot := tm.lockSlotDirect(&x)
	done := make(chan struct{})
	go func() { tm.drainCommits(); close(done) }()
	select {
	case <-done:
		t.Fatal("drainCommits returned with a lock window open")
	case <-time.After(50 * time.Millisecond):
	}
	tm.unlockSlotDirect(slot)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drainCommits never returned after the window closed")
	}
}

// Regression: drainCommits used to scan all 1<<TableBits slots per call.
// With a large table and an idle TM, a burst of drains must still be
// effectively free (one counter read each); the old scan would take
// minutes here.
func TestDrainCommitsIsCounterRead(t *testing.T) {
	tm := New(Config{TableBits: 22})
	start := time.Now()
	for i := 0; i < 50000; i++ {
		tm.drainCommits()
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("50k idle drains took %v; drain is scanning the table again", el)
	}
}

// waitUnlocked's bounded backoff must still observe the release promptly.
func TestWaitUnlockedBackoffReturns(t *testing.T) {
	tm := New(Config{GlobalFallback: true})
	tm.lockGlobal()
	done := make(chan struct{})
	go func() { tm.waitUnlocked(); close(done) }()
	select {
	case <-done:
		t.Fatal("waitUnlocked returned while the lock was held")
	case <-time.After(50 * time.Millisecond):
	}
	tm.unlockGlobal()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waitUnlocked missed the release")
	}
}
