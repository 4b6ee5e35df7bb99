// Package bdhash implements the buffered-durable HTM hash table of the
// paper's Listing 1 — the tutorial structure for the BDL + HTM strategy.
//
// The bucket array lives in DRAM and holds addresses of KV blocks in NVM.
// Every operation runs as one htm.TM.Atomic call (a hardware transaction
// with the TM's slow-path fallback), brackets itself with BeginOp/EndOp,
// and follows the epoch discipline:
//
//   - a preallocated NVM block (with invalid epoch) is kept per worker so
//     that allocation never happens inside the transaction;
//   - the block is stamped with the operation's epoch inside the
//     transaction, before the linearization point, and only on the
//     branch that links it;
//   - a block from an older epoch is replaced out-of-place and retired;
//     a block from the *current* epoch is updated in place (pSet);
//   - finding a block from a *newer* epoch aborts with OldSeeNewCode and
//     restarts the operation in the current epoch;
//   - persistence (PTrack) and reclamation (PRetire) happen after the
//     transaction commits.
//
// After a crash, the DRAM index is rebuilt by scanning recovered blocks.
package bdhash

import (
	"fmt"
	"sync/atomic"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

const (
	// BucketSize is the number of slots per bucket (one cache line of
	// DRAM per bucket).
	BucketSize = 8
	// maxProbeBuckets is the linear-probing window: an operation scans
	// at most this many consecutive buckets.
	maxProbeBuckets = 4
)

// Table is a buffered-durable hash table mapping uint64 keys to uint64
// values. All methods are safe for concurrent use; each goroutine passes
// its own epoch.Worker.
type Table struct {
	sys *epoch.System
	tm  *htm.TM
	tag uint8

	nBuckets uint64 // power of two
	slots    []uint64

	count atomic.Int64

	// removals guards the empty-slot insert path against acting on an
	// absence created by a newer-epoch removal (see epoch.RemovalStamps).
	removals epoch.RemovalStamps

	obs *obs.Recorder

	perW []wstate
}

// SetObs attaches a telemetry recorder: every Get/Insert/Remove records
// its latency on it. Attach before the table is shared between
// goroutines; nil disables recording.
func (t *Table) SetObs(r *obs.Recorder) { t.obs = r }

type wstate struct {
	prealloc epoch.Block
	_        [6]uint64
}

// New creates a table with capacity for roughly `capacity` keys (sized to
// a conservative load factor). tag distinguishes this table's blocks from
// other structures sharing the heap during recovery.
func New(sys *epoch.System, tm *htm.TM, capacity int, tag uint8) *Table {
	nBuckets := uint64(1)
	for nBuckets*BucketSize < uint64(capacity)*2 {
		nBuckets *= 2
	}
	return &Table{
		sys:      sys,
		tm:       tm,
		tag:      tag,
		nBuckets: nBuckets,
		slots:    make([]uint64, nBuckets*BucketSize),
		perW:     make([]wstate, 512),
	}
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

func (t *Table) slotRange(k uint64) (start, n uint64) {
	b := hash64(k) & (t.nBuckets - 1)
	return b * BucketSize, maxProbeBuckets * BucketSize
}

func (t *Table) slotAt(i uint64) *uint64 {
	return &t.slots[i&(t.nBuckets*BucketSize-1)]
}

// Len returns the number of keys in the table.
func (t *Table) Len() int { return int(t.count.Load()) }

// insertOutcome captures the decisions made inside one transaction
// attempt so they can be applied after commit.
type insertOutcome struct {
	usedPrealloc bool
	retire       epoch.Block
	persist      epoch.Block
	replaced     bool
	full         bool
}

// Insert adds or updates a key (upsert). It reports whether an existing
// value was replaced. Insert panics if the probe window is exhausted —
// size the table for the expected key population.
func (t *Table) Insert(w *epoch.Worker, k, v uint64) bool {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpInsert, k, t.obs.Now())
	}
	ws := &t.perW[w.ID()]
retryRegist:
	opEpoch := w.BeginOp()
	if ws.prealloc.IsNil() {
		ws.prealloc = w.NewKV(t.tag) // skip allocation if one is available
	}
	newBlk := ws.prealloc
	newBlk.InitKV(k, v) // initialize block, epoch reset to invalid

	var out insertOutcome
	res := w.Atomic(t.tm, func(tx *htm.Tx) {
		out = insertOutcome{}
		t.insertBody(tx, opEpoch, k, v, newBlk, &out)
	}, htm.PreWalk(func() { t.preWalk(k) }))
	if res.Code == epoch.OldSeeNewCode {
		w.AbortOp() // restart in the (newer) current epoch
		goto retryRegist
	}
	if out.full {
		w.AbortOp()
		panic(fmt.Sprintf("bdhash: probe window full inserting key %d; table under-sized", k))
	}
	if !out.retire.IsNil() {
		w.PRetire(out.retire)
	}
	if !out.persist.IsNil() {
		w.PTrack(out.persist)
	}
	if out.usedPrealloc {
		ws.prealloc = epoch.Block{}
	}
	if !out.replaced {
		t.count.Add(1)
	}
	w.EndOp()
	return out.replaced
}

// insertBody is the transactional insert of Listing 1 (lines 17-37). It
// stamps the preallocated block only on the branches that link it.
// Listing 1 stamps it first and re-invalidates it after an in-place
// commit, but that reset is a volatile store: a write-back of the
// block's line between the commit and the reset (an eviction, or a flush
// of a neighbouring block) persists the stamp, and if the reset is not
// written back before a crash, recovery resurrects the unlinked block as
// a phantom duplicate of the key (the Sec. 5 pitfall).
func (t *Table) insertBody(tx *htm.Tx, opEpoch, k, v uint64, newBlk epoch.Block, out *insertOutcome) {
	start, n := t.slotRange(k)
	var empty *uint64
	for i := uint64(0); i < n; i++ {
		sp := t.slotAt(start + i)
		addr := tx.Load(sp)
		if addr == 0 {
			if empty == nil {
				empty = sp
			}
			continue
		}
		b := t.sys.BlockAt(nvm.Addr(addr))
		if b.KeyTx(tx) != k {
			continue
		}
		// Found: compare epochs (Listing 1 lines 21-29).
		be := b.EpochTx(tx)
		switch {
		case be > opEpoch:
			// Never overwrite a newer block from an old epoch.
			tx.Abort(epoch.OldSeeNewCode)
		case be < opEpoch:
			// Out-of-place update: swap in the preallocated block.
			newBlk.SetEpochTx(tx, opEpoch)
			tx.Store(sp, uint64(newBlk.Addr()))
			out.retire = b
			out.persist = newBlk
			out.usedPrealloc = true
		default:
			// Same epoch: in-place update (pSet). The block is already
			// tracked in this epoch, so no re-tracking is needed.
			b.SetValueTx(tx, v)
		}
		out.replaced = true
		return
	}
	if empty == nil {
		out.full = true
		return
	}
	// Fresh insert: no block to epoch-compare, so the absence itself must
	// be validated against newer removals.
	t.removals.CheckTx(tx, k, opEpoch)
	newBlk.SetEpochTx(tx, opEpoch)
	tx.Store(empty, uint64(newBlk.Addr()))
	out.persist = newBlk
	out.usedPrealloc = true
}

// preWalk touches the key's probe window non-transactionally, the paper's
// mitigation for MEMTYPE aborts (Sec. 4.1).
func (t *Table) preWalk(k uint64) {
	start, n := t.slotRange(k)
	var sink uint64
	for i := uint64(0); i < n; i++ {
		addr := t.tm.DirectLoad(t.slotAt(start + i))
		if addr != 0 {
			sink += t.sys.Heap().Load(nvm.Addr(addr))
		}
	}
	_ = sink
}

// Get returns the value stored under k.
func (t *Table) Get(k uint64) (uint64, bool) { return t.GetW(nil, k) }

// GetW is Get routed through an epoch worker so a service request's
// sampled span (worker.SetSpan) sees the lookup's HTM attempts; w may be
// nil (plain Get).
func (t *Table) GetW(w *epoch.Worker, k uint64) (uint64, bool) {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpLookup, k, t.obs.Now())
	}
	var v uint64
	var ok bool
	w.Atomic(t.tm, func(tx *htm.Tx) {
		v, ok = 0, false
		start, n := t.slotRange(k)
		for i := uint64(0); i < n; i++ {
			addr := tx.Load(t.slotAt(start + i))
			if addr == 0 {
				continue
			}
			b := t.sys.BlockAt(nvm.Addr(addr))
			if b.KeyTx(tx) == k {
				v, ok = b.ValueTx(tx), true
				return
			}
		}
	})
	return v, ok
}

// Remove deletes a key, reporting whether it was present.
func (t *Table) Remove(w *epoch.Worker, k uint64) bool {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpRemove, k, t.obs.Now())
	}
retryRegist:
	opEpoch := w.BeginOp()
	var retire epoch.Block
	var removed bool
	res := w.Atomic(t.tm, func(tx *htm.Tx) {
		retire, removed = epoch.Block{}, false
		start, n := t.slotRange(k)
		for i := uint64(0); i < n; i++ {
			sp := t.slotAt(start + i)
			addr := tx.Load(sp)
			if addr == 0 {
				continue
			}
			b := t.sys.BlockAt(nvm.Addr(addr))
			if b.KeyTx(tx) != k {
				continue
			}
			if b.EpochTx(tx) > opEpoch {
				tx.Abort(epoch.OldSeeNewCode)
			}
			t.removals.RaiseTx(tx, k, opEpoch)
			tx.Store(sp, 0)
			retire = b
			removed = true
			return
		}
		// Absent: make sure the absence is not a newer removal's work.
		t.removals.CheckTx(tx, k, opEpoch)
	})
	if res.Code == epoch.OldSeeNewCode {
		w.AbortOp()
		goto retryRegist
	}
	if removed {
		w.PRetire(retire)
		t.count.Add(-1)
	}
	w.EndOp()
	return removed
}

// RebuildBlock reinserts one recovered block into the DRAM index. Call it
// from the epoch.Recover rebuild callback for records carrying this
// table's tag. Recovery is single-threaded, so plain stores suffice.
func (t *Table) RebuildBlock(rec epoch.BlockRecord) {
	k := rec.Block.Key()
	start, n := t.slotRange(k)
	for i := uint64(0); i < n; i++ {
		sp := t.slotAt(start + i)
		if *sp == 0 {
			*sp = uint64(rec.Block.Addr())
			t.count.Add(1)
			return
		}
		if t.sys.BlockAt(nvm.Addr(*sp)).Key() == k {
			panic(fmt.Sprintf("bdhash: duplicate key %d in recovery (BDL invariant violated)", k))
		}
	}
	panic("bdhash: probe window full during recovery")
}

// Keys calls fn for every key/value in the table. Not linearizable; for
// tests and diagnostics.
func (t *Table) Keys(fn func(k, v uint64)) {
	for i := range t.slots {
		if a := atomic.LoadUint64(&t.slots[i]); a != 0 {
			b := t.sys.BlockAt(nvm.Addr(a))
			fn(b.Key(), b.Value())
		}
	}
}
