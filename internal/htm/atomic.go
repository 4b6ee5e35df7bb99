package htm

import (
	"runtime"
	"slices"
	"sync/atomic"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// Atomic is the one HTM entry point: the paper's Listing-1 policy of
// retrying a transaction, then falling back, written once.
//
// The fast path runs body as speculative attempts. Transient aborts
// (conflict, spurious, MEMTYPE) retry with jittered backoff until the
// retry budget is spent; a held global lock is waited out without
// spending budget; deterministic aborts (capacity, persist-op) skip
// straight to the slow path. The slow path runs the *same body*, with
// the Tx in session mode:
//
//   - Fine-grained (the default). The session locks the versioned-lock
//     slot of every line it touches — the same table, and the same
//     global slot order, that transactional commit uses — so a
//     fast-path transaction conflicts with the slow path only when
//     their line sets actually overlap. Reads lock their line too
//     (two-phase locking, so a transaction cannot slip a write between
//     a session read and its finish — that would be write skew). Writes
//     are buffered and applied when the session finishes; released
//     slots covering written lines take a fresh version, all others
//     revert to their pre-lock version. A session can therefore be
//     abandoned and restarted at any point before finish with no trace
//     in memory.
//   - Config.GlobalFallback. The run takes the TM's one lock word, to
//     which every fast-path attempt subscribes, reads memory directly
//     and buffers its writes until it finishes.
//
// Deadlock/livelock discipline of fine-grained sessions:
//
//   - Transactional commit never blocks: it try-locks and aborts. A
//     commit can therefore never participate in a cycle.
//   - A session's blocking waits are bounded: after a bounded spin the
//     session restarts, releasing everything it holds (waits on slots
//     above its current maximum get a longer budget, because they cannot
//     form a cycle; out-of-order waits get a short one).
//   - A session that keeps restarting escalates to the TM-wide fallback
//     mutex. The escalated holder is unique, so it may block indefinitely
//     on any slot: every other holder is a bounded commit write-back or a
//     non-escalated session that restarts (releasing its slots) in
//     bounded time. Escalation grabs the mutex only after releasing all
//     slots, so there is no hold-and-wait on the mutex itself.
//
// Because a body may run many times, on either path, it must decide
// before it writes, reset its outputs at the top, and reach shared
// state only through tx. tx.Abort(code) on either path leaves no trace
// in memory and returns Result{Cause: CauseExplicit, Code: code};
// otherwise Atomic returns a committed Result. sp, which may be nil,
// receives every fast-path attempt's outcome.
func (tm *TM) Atomic(sp *obs.Span, body func(tx *Tx), opts ...Option) Result {
	var preWalk func()
	slowOnly := false
	for _, o := range opts {
		if o.preWalk != nil {
			preWalk = o.preWalk
		}
		slowOnly = slowOnly || o.slowOnly
	}
	preWalked := false
	for retries := 0; !slowOnly && retries < retryBudget; {
		res := tm.attemptSpan(sp, body, preWalked)
		switch res.Cause {
		case CauseNone, CauseExplicit:
			return res
		case CauseLocked:
			tm.waitUnlocked() // global mode only; spends no budget
		case CauseMemType:
			if preWalk != nil {
				preWalk()
				preWalked = true
			}
			retries++
		case CauseCapacity, CausePersistOp:
			retries = retryBudget // deterministic: straight to the slow path
		default:
			retries++
			tm.backoff(retries)
		}
	}
	return tm.slowPath(body)
}

// retryBudget is the number of fast-path attempts an Atomic call may
// spend on transient aborts before it takes the slow path.
const retryBudget = 32

// Option tunes one Atomic call. The zero Option changes nothing.
type Option struct {
	preWalk  func()
	slowOnly bool
}

// PreWalk runs fn after a MEMTYPE abort, before the next attempt: the
// paper's non-transactional pre-walk of the data the body will touch.
// Attempts after a pre-walk abort at Config.PreWalkResidualRate.
func PreWalk(fn func()) Option { return Option{preWalk: fn} }

// SlowPathOnly runs the body on the slow path without trying the fast
// path, for operations that must exclude every transaction (see
// Tx.DrainCommits).
func SlowPathOnly() Option { return Option{slowOnly: true} }

const (
	// fbOwnerBit marks a versioned-lock slot as held by a fallback
	// session rather than a committing transaction, so fast-path aborts
	// caused by the slow path are countable. Transaction owner words are
	// id<<1|1 with ids from a counter; the top bit is free for eons.
	fbOwnerBit = uint64(1) << 63

	// fbSpinInOrder bounds the wait for a slot above the session's
	// current maximum (a wait that cannot deadlock but must stay bounded
	// so the escalated holder can always make progress).
	fbSpinInOrder = 256
	// fbSpinOutOfOrder bounds the wait for a slot below the session's
	// current maximum, where waiting could cycle with another session.
	fbSpinOutOfOrder = 32
	// fbEscalateAfter is the number of whole-session restarts after which
	// the session serializes behind the TM-wide fallback mutex.
	fbEscalateAfter = 8
)

// slowPath runs body once to completion in session mode. Every run
// counts one fallback acquire, in both modes.
func (tm *TM) slowPath(body func(tx *Tx)) Result {
	tx := tm.pool.Get().(*Tx)
	defer tm.pool.Put(tx)
	tx.reset(tm.txIDs.Add(1), 0)
	tx.owner = fbOwnerBit | tx.id<<1 | 1
	tm.stats.fallbackAcquires.Add(1)
	tm.obs.MetricAdd(obs.MFallbackAcquires, tx.owner, 1)
	if tm.cfg.GlobalFallback {
		tx.mode = modeGlobal
		return tm.globalSession(tx, body)
	}
	tx.mode = modeHybrid
	return tm.hybridSession(tx, body)
}

// hybridSession runs body under per-line two-phase locking, restarting
// it whenever a bounded lock wait gives up.
func (tm *TM) hybridSession(tx *Tx, body func(tx *Tx)) Result {
	defer func() {
		tx.release(false) // a foreign panic must not leave lines locked
		if tx.escalated {
			tm.fbMu.Unlock()
		}
	}()
	for {
		res, ok := tm.runBody(tx, body)
		if ok {
			tx.finish()
			return Result{Committed: true}
		}
		tx.release(false)
		tx.writes = tx.writes[:0]
		if res.Cause != CauseConflict {
			return res // the body aborted itself: nothing was applied
		}
		tx.restarts++
		tm.stats.fallbackRestarts.Add(1)
		if !tx.escalated && tx.restarts >= fbEscalateAfter {
			tm.fbMu.Lock()
			tx.escalated = true
		}
		tm.backoff(tx.restarts)
	}
}

// globalSession runs body under the TM's global lock, then applies its
// buffered writes through the conflict-detection tables.
func (tm *TM) globalSession(tx *Tx, body func(tx *Tx)) Result {
	tm.lockGlobal()
	defer tm.unlockGlobal()
	// The lock word is the run's whole lock set: one line.
	tm.stats.fallbackLines.Add(1)
	tm.obs.MetricAdd(obs.MFallbackLines, tx.owner, 1)
	if res, ok := tm.runBody(tx, body); !ok {
		return res
	}
	for i := range tx.writes {
		we := &tx.writes[i]
		if we.heap != nil {
			tm.DirectStoreAddr(we.heap, we.addr, we.val)
		} else {
			tm.DirectStore(we.p, we.val)
		}
	}
	return Result{Committed: true}
}

// sessionWrite returns the session's buffered write for p, or nil.
// Session write sets are small (an operation's few mutated words), so a
// linear scan beats a hash set here.
func (tx *Tx) sessionWrite(p *uint64) *writeEntry {
	for i := range tx.writes {
		if tx.writes[i].p == p {
			return &tx.writes[i]
		}
	}
	return nil
}

// sessionLoad reads a word on the slow path: the session's own buffered
// write if any, else memory, locking the line for the rest of a
// fine-grained session.
func (tx *Tx) sessionLoad(p *uint64, h *nvm.Heap, a nvm.Addr) uint64 {
	if we := tx.sessionWrite(p); we != nil {
		return we.val
	}
	if tx.mode == modeHybrid {
		tx.lockLine(p)
	}
	if h != nil {
		return h.Load(a)
	}
	return atomic.LoadUint64(p)
}

// sessionStore buffers a slow-path write, locking its line in a
// fine-grained session. Heap writes are applied through the heap so
// dirty-line tracking stays correct.
func (tx *Tx) sessionStore(we writeEntry) {
	if tx.mode == modeHybrid {
		tx.lockLine(we.p)
	}
	if prev := tx.sessionWrite(we.p); prev != nil {
		*prev = we
		return
	}
	tx.writes = append(tx.writes, we)
}

// lockLine acquires the versioned-lock slot covering p's line, keeping
// the held set (lockOrder, with pre-lock versions in lockPrev) sorted.
// Bounded waiting + whole-session restart keep the lock graph acyclic;
// see Atomic.
func (tx *Tx) lockLine(p *uint64) {
	tm := tx.tm
	idx := tm.slotIdx(lineKey(p))
	n, found := slices.BinarySearch(tx.lockOrder, idx)
	if found {
		return
	}
	slot := &tm.table[idx]
	limit := fbSpinInOrder
	if n < len(tx.lockOrder) {
		limit = fbSpinOutOfOrder
	}
	for spins := 0; ; spins++ {
		cur := slot.Load()
		if cur&1 == 0 && slot.CompareAndSwap(cur, tx.owner) {
			tx.lockOrder = slices.Insert(tx.lockOrder, n, idx)
			tx.lockPrev = slices.Insert(tx.lockPrev, n, cur)
			tm.stats.fallbackLines.Add(1)
			tm.obs.MetricAdd(obs.MFallbackLines, tx.owner, 1)
			return
		}
		if !tx.escalated && spins >= limit {
			tx.abort(CauseConflict, 0) // restart the session
		}
		runtime.Gosched()
	}
}

// DrainCommits waits until every in-flight commit write-back has
// finished. Per-line locking already serializes a session against
// commits on the lines it touches; this barrier is for slow-path bodies
// about to mutate structure state that transactions read *without* the
// conflict tables (e.g. spash's directory pointers), after locking the
// word those transactions validate. Under GlobalFallback taking the lock
// has already drained. It panics on the fast path.
func (tx *Tx) DrainCommits() {
	switch tx.mode {
	case modeFast:
		panic("htm: DrainCommits on the fast path")
	case modeHybrid:
		tx.tm.drainCommits()
	}
}

// release lets go of every held slot. Slots covering buffered writes take
// a fresh version (after finish applied them); the rest revert to their
// pre-lock versions, invisible to any reader.
func (tx *Tx) release(committed bool) {
	tm := tx.tm
	if len(tx.lockOrder) == 0 {
		return
	}
	tx.written = slices.Grow(tx.written[:0], len(tx.lockOrder))[:len(tx.lockOrder)]
	clear(tx.written)
	var wv uint64
	if committed && len(tx.writes) > 0 {
		for i := range tx.writes {
			if n, ok := slices.BinarySearch(tx.lockOrder, tm.slotIdx(lineKey(tx.writes[i].p))); ok {
				tx.written[n] = true
			}
		}
		wv = tm.clock.Add(1)
	}
	for i, idx := range tx.lockOrder {
		if tx.written[i] {
			tm.table[idx].Store(wv << 1)
		} else {
			tm.table[idx].Store(tx.lockPrev[i])
		}
	}
	tx.lockOrder = tx.lockOrder[:0]
	tx.lockPrev = tx.lockPrev[:0]
}

// finish applies the buffered writes and publishes the new line versions.
func (tx *Tx) finish() {
	for i := range tx.writes {
		we := &tx.writes[i]
		if we.heap != nil {
			we.heap.Store(we.addr, we.val)
		} else {
			atomic.StoreUint64(we.p, we.val)
		}
	}
	tx.release(true)
}
