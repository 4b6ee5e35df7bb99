package htm

import (
	"runtime"
	"sync/atomic"

	"bdhtm/internal/nvm"
)

// lockGlobal takes the GlobalFallback lock word. Acquisition is
// published through the version table so subscribed transactions abort,
// and then waits for in-flight commits to drain: a transaction that
// validated its read set before the lock was published may still be
// writing back, and — unlike real HTM, whose commits are instantaneous —
// this simulation must let it finish before the slow path reads or
// writes shared data.
func (tm *TM) lockGlobal() {
	for {
		if atomic.LoadUint64(&tm.gword) == 0 &&
			atomic.CompareAndSwapUint64(&tm.gword, 0, 1) {
			tm.bumpVersion(&tm.gword)
			tm.drainCommits()
			return
		}
		runtime.Gosched()
	}
}

// unlockGlobal drops the GlobalFallback lock word.
func (tm *TM) unlockGlobal() {
	atomic.StoreUint64(&tm.gword, 0)
	tm.bumpVersion(&tm.gword)
}

// waitUnlocked spins until the GlobalFallback lock word is free, with
// bounded exponential backoff: a bare Gosched loop burns a core
// re-checking a lock that stays held for a whole slow-path run, while
// the backoff caps at 64 yields per probe so wakeup latency stays
// bounded.
func (tm *TM) waitUnlocked() {
	for spin := 0; atomic.LoadUint64(&tm.gword) != 0; spin++ {
		yieldBackoff(spin)
	}
}

// drainCommits waits until no transaction holds a versioned lock, i.e.
// every commit that validated before the global lock (or a spash-style
// barrier line) was published has finished its write-back. Transactions
// that validate afterwards abort on the subscribed word, so once the
// table is clean the slow-path holder has exclusive access.
//
// The wait is one counter spin — tm.held tracks outstanding lock windows,
// incremented before the first slot CAS of a commit or direct store —
// where it used to scan all 1<<TableBits slots on every acquisition.
func (tm *TM) drainCommits() {
	for spin := 0; tm.held.Load() != 0; spin++ {
		yieldBackoff(spin)
	}
}

// yieldBackoff yields for an exponentially growing, bounded window —
// 1<<min(spin, 6) Gosched calls — so long spins escalate from polite to
// patient without unbounded delay once the awaited condition clears.
func yieldBackoff(spin int) {
	shift := spin
	if shift > 6 {
		shift = 6
	}
	for i := 0; i < 1<<shift; i++ {
		runtime.Gosched()
	}
}

// lockSlotDirect opens a one-slot lock window over p's line: the slot is
// locked with a fresh transaction id so concurrent commits see it busy,
// and tm.held is raised so drainCommits accounts for the window. The
// caller stores and then closes the window with unlockSlotDirect.
func (tm *TM) lockSlotDirect(p *uint64) *atomic.Uint64 {
	slot := &tm.table[tm.slotIdx(lineKey(p))]
	owner := tm.txIDs.Add(1)<<1 | 1
	for {
		cur := slot.Load()
		if cur&1 == 0 {
			// Raise held before the CAS so an open window is never
			// invisible to drainCommits, but not while merely spinning —
			// a spin on a fallback-held slot must not stall a session
			// that is itself draining commits.
			tm.held.Add(1)
			if slot.CompareAndSwap(cur, owner) {
				return slot
			}
			tm.held.Add(-1)
		}
		runtime.Gosched()
	}
}

func (tm *TM) unlockSlotDirect(slot *atomic.Uint64) {
	slot.Store(tm.clock.Add(1) << 1)
	tm.held.Add(-1)
}

// bumpVersion advances the versioned-lock slot covering p, making any
// transactional read of p's line fail validation.
func (tm *TM) bumpVersion(p *uint64) {
	tm.unlockSlotDirect(tm.lockSlotDirect(p))
}

// DirectStore performs a non-transactional store to a DRAM word that is
// visible to the conflict-detection mechanism: every transaction that
// read the word's line aborts. Outside a slow-path run it is for
// single-threaded contexts such as recovery, and for words no body
// writes (e.g. a seqlock that transactions only validate).
func (tm *TM) DirectStore(p *uint64, v uint64) {
	slot := tm.lockSlotDirect(p)
	atomic.StoreUint64(p, v)
	tm.unlockSlotDirect(slot)
}

// DirectStoreAddr is DirectStore for simulated NVM words; the store goes
// through the heap so dirty-line tracking stays correct.
func (tm *TM) DirectStoreAddr(h *nvm.Heap, a nvm.Addr, v uint64) {
	slot := tm.lockSlotDirect(h.WordPtr(a))
	h.Store(a, v)
	tm.unlockSlotDirect(slot)
}

// DirectLoad performs a non-transactional load. Plain atomic semantics are
// sufficient: transactional writers' stores only become visible at
// commit.
func (tm *TM) DirectLoad(p *uint64) uint64 { return atomic.LoadUint64(p) }
