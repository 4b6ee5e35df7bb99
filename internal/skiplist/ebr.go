package skiplist

import (
	"sync"
	"sync/atomic"

	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// ebr is a small epoch-based reclamation scheme for skiplist nodes.
// Unlinked nodes cannot be returned to the allocator immediately: a
// concurrent traversal that read a pointer to the node before it was
// unlinked may still dereference it. Each handle announces an era while
// it operates; a retired node is freed only once every active handle has
// been observed in a later era (or idle).
//
// On the hybrid fast path the announcement stores themselves are elided
// ("teleportation"): operations run unannounced and instead validate the
// era-seqlock word seq inside their transactions. seq is bumped through
// the TM around every freeing scan, so a transaction that overlaps a
// scan fails its read-set validation and the operation re-captures — a
// full hazard announcement plus a re-find — before retrying.
type ebr struct {
	alloc *palloc.Allocator
	era   atomic.Uint64
	slots []ebrSlot

	tm     *htm.TM // non-nil enables the seqlock (hybrid HTM variants)
	tele   bool
	_      [6]uint64
	seq    uint64 // era-seqlock: odd while a scan is freeing; own line
	_      [7]uint64
	scanMu sync.Mutex // serializes teleport-mode scans
}

type ebrSlot struct {
	ann     atomic.Uint64 // 0 = idle, else era+1
	retired []retiredNode
	pending int
	_       [4]uint64
}

type retiredNode struct {
	addr nvm.Addr
	era  uint64
}

func newEBR(alloc *palloc.Allocator, threads int) *ebr {
	e := &ebr{alloc: alloc, slots: make([]ebrSlot, threads)}
	e.era.Store(1)
	return e
}

// enter announces that handle tid is traversing.
func (e *ebr) enter(tid int) {
	e.slots[tid].ann.Store(e.era.Load() + 1)
}

// exit announces that handle tid holds no node references.
func (e *ebr) exit(tid int) {
	e.slots[tid].ann.Store(0)
}

// retire schedules a node for reclamation once a grace period has passed.
// Called with tid's slot entered.
func (e *ebr) retire(tid int, addr nvm.Addr) {
	s := &e.slots[tid]
	s.retired = append(s.retired, retiredNode{addr: addr, era: e.era.Load()})
	s.pending++
	if s.pending >= 64 {
		s.pending = 0
		e.scan(tid)
	}
}

// scan advances the era and frees tid's retired nodes whose era precedes
// every active announcement. Teleporting (unannounced) readers are not
// visible in the announcements; the seqlock bumps around the frees
// invalidate their transactions instead.
func (e *ebr) scan(tid int) {
	if e.tele {
		e.scanMu.Lock()
		defer e.scanMu.Unlock()
		// DirectStore locks and re-versions seq's lock-table slot, so any
		// transaction that read seq (guard.validate) aborts rather than
		// committing over memory this scan frees.
		s := e.tm.DirectLoad(&e.seq)
		e.tm.DirectStore(&e.seq, s+1)
		defer e.tm.DirectStore(&e.seq, s+2)
	}
	e.era.Add(1)
	min := e.era.Load()
	for i := range e.slots {
		if i == tid {
			continue // the caller is active but holds no retired refs
		}
		if a := e.slots[i].ann.Load(); a != 0 && a-1 < min {
			min = a - 1
		}
	}
	s := &e.slots[tid]
	kept := s.retired[:0]
	for _, r := range s.retired {
		if r.era < min {
			e.alloc.Free(r.addr)
		} else {
			kept = append(kept, r)
		}
	}
	s.retired = kept
}

// guard tracks one operation's reclamation posture. In teleport mode the
// operation runs unannounced with a snapshot of the era-seqlock; once the
// snapshot is invalidated — or the operation leaves the transactional
// fast path — capture() falls back to a full hazard announcement. The
// zero guard is a valid always-announced guard for single-threaded
// contexts such as recovery.
type guard struct {
	l    *List
	tid  int
	seq  uint64
	tele bool
}

// enterOp begins an operation: unannounced when the list teleports and no
// scan is in flight, announced otherwise.
func (h *Handle) enterOp() guard {
	l := h.l
	if l.teleport {
		if s := l.cfg.TM.DirectLoad(&l.reap.seq); s&1 == 0 {
			return guard{l: l, tid: h.tid, seq: s, tele: true}
		}
	}
	l.reap.enter(h.tid)
	return guard{l: l, tid: h.tid}
}

func (g *guard) exitOp() {
	if !g.tele && g.l != nil {
		g.l.reap.exit(g.tid)
	}
}

// capture abandons teleport mode with a full hazard announcement, so
// reclamation keeps every reachable node alive for the rest of the
// operation. Pointers gathered while unannounced are untrusted; the
// caller must re-find from the head.
func (g *guard) capture() {
	if g.tele {
		g.l.reap.enter(g.tid)
		g.tele = false
	}
}

// validate subscribes the transaction to the era-seqlock: if a scan began
// or completed since the operation started, unannounced reads may have
// observed freed memory — abort and recapture. Reading seq also puts it
// in the transaction's read set, so a scan that starts after this check
// still fails the commit-time validation. The slow path does not
// validate reads against the seqlock, so a teleporting operation that
// reaches it recaptures first: a full hazard announcement, then a
// re-find before trusting any pointer it gathered unannounced.
func (g *guard) validate(tx *htm.Tx) {
	if !g.tele {
		return
	}
	if tx.Slow() || tx.Load(&g.l.reap.seq) != g.seq {
		tx.Abort(recaptureCode)
	}
}

// teleporting reports whether the operation is still unannounced.
func (g *guard) teleporting() bool { return g.tele }

// drainAll frees every retired node unconditionally. Only safe when no
// handle is operating (shutdown, or single-threaded recovery).
func (e *ebr) drainAll() {
	for i := range e.slots {
		for _, r := range e.slots[i].retired {
			e.alloc.Free(r.addr)
		}
		e.slots[i].retired = nil
		e.slots[i].pending = 0
	}
}
