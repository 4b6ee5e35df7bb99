// Package epoch implements the paper's primary contribution: a
// buffered-durably-linearizable (BDL) epoch system that reconciles
// hardware transactional memory with persistent programming (Sec. 3).
//
// The design extends Montage (Wen et al., ICPP'21). A background advancer
// increments a global epoch clock every few milliseconds, dividing
// execution into epochs. Each advance is pipelined: it publishes e+1
// first and then persists the epoch that just closed. At any instant,
//
//   - epoch e (the value of the global clock) is *active*: new operations
//     begin here;
//   - epoch e-1 is *in-flight* only while the advance that opened e runs:
//     operations that began there may finish, but no new ones start, and
//     the advance persists e-1 once they drain;
//   - epochs ≤ e-1 are *valid* between advances, and epochs ≤ e-2 always:
//     their updates have fully persisted.
//
// NVM writes performed during an epoch are tracked in per-worker buffers
// and flushed by the advancer when the epoch closes, never on the
// operation's critical path and never inside a hardware transaction — this
// removes the flush/HTM incompatibility entirely. A crash during epoch e
// recovers the structure to its state at the end of an epoch ≥ e-2.
//
// HTM-specific extensions over Montage (Sec. 3 of the paper):
//
//   - blocks are preallocated *outside* transactions with an invalid epoch
//     number, and stamped with the operation's epoch transactionally via
//     SetEpochTx just before use (Listing 1);
//   - persistence (PTrack) and reclamation (PRetire) of blocks touched by
//     a transaction are deferred until after the transaction commits;
//   - updating a block that a later epoch already modified is forbidden —
//     structures abort with ErrOldSeeNew (the OldSeeNewException) and
//     restart in the current epoch.
package epoch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bdhtm/internal/durability"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

// Durable root layout (word addresses within nvm.RootWords). The
// durability layer owns the two words after the magic: the persisted
// watermark (durability.WatermarkAddr) and the engine-identity word.
const (
	rootMagicAddr nvm.Addr = 1

	rootMagic = 0xbd17eb0c0ffee001
)

// firstEpoch is the epoch in which a fresh system starts; it is formatted
// with watermark firstEpoch-1, so the first advance persists firstEpoch.
const firstEpoch = 2

// numSlots is the depth of the per-worker buffer ring. Buffers for epoch x
// are drained by the advance that closes x, before epoch x+1 ends, so 8
// slots give a wide safety margin.
const numSlots = 8

// OldSeeNewCode is the conventional HTM explicit-abort code structures use
// for the paper's OldSeeNewException: an operation in an old epoch found a
// block modified in a newer epoch and must restart in the current epoch.
const OldSeeNewCode uint8 = 0xE1

// Config tunes an epoch system.
type Config struct {
	// EpochLength is the advancer's tick. Default 50ms (the paper's
	// default experimental setting).
	EpochLength time.Duration
	// MaxWorkers bounds concurrently registered workers. Default 256.
	MaxWorkers int
	// Manual disables the background advancer; epochs then advance only
	// via Sync/AdvanceOnce. Used by tests and deterministic examples.
	Manual bool
	// OnAdvance, when non-nil, is called synchronously at the end of every
	// AdvanceOnce with the epoch that has just become durable. It runs
	// under the advancer's serialization lock, after the new active epoch
	// is published. Crash-consistency harnesses use it to snapshot model
	// state at epoch boundaries; it must not call back into the system.
	OnAdvance func(persisted uint64)
	// Shards is the width of the persistence path: the parallel flush
	// fan-out during an advance, the per-shard block-lifecycle counters,
	// and the allocator's magazine caches are all striped this many ways,
	// with workers mapped to shards by ID. Rounded down to a power of two
	// and clamped to [1, 32] (obs.NumShards) so a shard index is also an
	// exact obs counter lane. Default 1 — the serial path.
	Shards int
	// RecoveryWorkers is the number of goroutines Recover partitions the
	// slab header scan across (Sec. 5.2's judgment is independent per
	// block, so the scan parallelizes by slab range). 0 or 1 selects the
	// serial scan; values are clamped to [1, 64]. The engine's media
	// repair and the rebuild-callback replay stay serial either way, and
	// the rebuilt state is bit-identical to the serial scan's.
	RecoveryWorkers int
	// RecoveryTick, when non-nil, is called periodically during
	// Recover's header scan with live progress: slabs scanned, blocks
	// recovered so far, resurrections so far. Calls may come
	// concurrently from recovery worker goroutines, so implementations
	// must be thread-safe and cheap. cmd/bdrecover uses it for its live
	// progress report.
	RecoveryTick func(slabs, recovered, resurrected int64)
	// Engine selects the durability engine that persists each closing
	// epoch: "bdl" (default — the paper's buffered-durability epoch
	// engine), "undo", "redo4f", "redo2f" or "quadra" (see package
	// durability). Recovery must use the engine that formatted the
	// heap; mixing them panics.
	Engine string
	// Obs, when non-nil, receives the epoch-advance phase timeline
	// (quiesce/flush/root/reclaim durations plus per-shard fan-out
	// timings), advance events, per-shard block-lifecycle counters, the
	// flusher-depth gauge, and the allocator's alloc/free events.
	// It does not reach the heap: attach a recorder there separately
	// (nvm.Heap.SetObs) if persist events are wanted too.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.EpochLength == 0 {
		c.EpochLength = 50 * time.Millisecond
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 256
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > obs.NumShards {
		c.Shards = obs.NumShards
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards &= c.Shards - 1
	}
	if c.RecoveryWorkers < 1 {
		c.RecoveryWorkers = 1
	}
	if c.RecoveryWorkers > 64 {
		c.RecoveryWorkers = 64
	}
	return c
}

// Stats counts epoch-system activity.
type Stats struct {
	Advances      int64 // epoch transitions
	FlushedBlocks int64 // blocks written back by the background persister
	RetiredBlocks int64 // blocks retired (deferred reclamation)
	FreedBlocks   int64 // retired blocks actually reclaimed
	Resurrected   int64 // deleted-but-unpersisted blocks revived by recovery
	RecoveredLive int64 // live blocks handed to the rebuild callback

	// Recovery timing for a system opened by Recover (zero for systems
	// created by New): the header-scan duration (engine repair + palloc
	// judgment + write-back), the rebuild-callback replay duration, and
	// the worker count the scan actually used.
	RecoveryScanNS    int64
	RecoveryRebuildNS int64
	RecoveryWorkers   int

	Shards       int   // persistence-path shard count (Config.Shards)
	Backpressure int64 // advances that ran longer than EpochLength (the ticker skipped or delayed a tick)
	AdvanceP99NS int64 // p99 of AdvanceOnce wall time, nanoseconds

	// Durability-engine identity and self-accounting (Config.Engine;
	// see durability.Accounting). EngineFences relates to EngineCommits
	// by the engine's documented per-commit fence budget, plus the
	// spill surcharge.
	Engine         string
	EngineCommits  int64
	EngineFences   int64
	EngineFlushes  int64
	EngineLogWords int64
	LogSpills      int64

	// PerShard is the per-flusher-shard decomposition of the flushed /
	// retired / freed totals (len == Shards; sums equal the aggregates).
	PerShard []ShardCounters
}

// ShardCounters is one flusher shard's slice of the block-lifecycle
// counters.
type ShardCounters struct {
	FlushedBlocks int64
	RetiredBlocks int64
	FreedBlocks   int64
}

// shardCtr is one shard's cache-line-padded counter stripe. Retired is
// bumped worker-side by PRetire; flushed and freed are published by the
// advancer in one burst per task under the advSeq seqlock.
type shardCtr struct {
	flushed atomic.Int64
	retired atomic.Int64
	freed   atomic.Int64
	_       [5]int64
}

// System is a BDL epoch system over one NVM heap.
type System struct {
	heap  *nvm.Heap
	alloc *palloc.Allocator
	cfg   Config
	eng   durability.Engine

	global    atomic.Uint64 // active epoch
	persisted atomic.Uint64 // newest fully persisted epoch (mirrors NVM root)

	workers  []*Worker
	nWorkers atomic.Int32
	freeMu   sync.Mutex
	freeIDs  []int

	advMu sync.Mutex // serializes epoch advancement

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	advances      atomic.Int64
	backpressure  atomic.Int64
	resurrected   atomic.Int64
	recoveredLive atomic.Int64

	recoveryScanNS    atomic.Int64 // set once by Recover
	recoveryRebuildNS atomic.Int64 // set once by Recover

	shardCtrs []shardCtr    // per-shard flushed/retired/freed
	advSeq    atomic.Uint64 // seqlock over each task's counter burst
	advHist   obs.Hist      // AdvanceOnce wall-time distribution

	// closedNS[e%numSlots] is the obs-clock time epoch e stopped being
	// active, consumed by runTask for the durable-lag gauge.
	closedNS [numSlots]atomic.Int64

	// Durable-watermark subscribers (group-commit ackers and friends).
	// Notifications are coalescing wakes, not a value stream: subscribers
	// re-read PersistedEpoch after each wake.
	subMu   sync.Mutex
	subs    map[uint64]chan<- uint64
	subNext uint64
}

// newSystem builds the in-DRAM skeleton shared by New and Recover; the
// caller initializes the epoch clocks and root words and then calls
// startAdvancer.
func newSystem(h *nvm.Heap, cfg Config) *System {
	s := &System{
		heap:      h,
		alloc:     palloc.New(h),
		cfg:       cfg,
		workers:   make([]*Worker, cfg.MaxWorkers),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		shardCtrs: make([]shardCtr, cfg.Shards),
	}
	s.alloc.SetObs(cfg.Obs)
	s.alloc.SetShards(cfg.Shards)
	eng, err := durability.New(cfg.Engine, h, cfg.Shards, cfg.Obs)
	if err != nil {
		panic(err)
	}
	s.eng = eng
	return s
}

// New formats a fresh epoch system on the heap and starts the background
// advancer (unless cfg.Manual). Any prior contents of the heap's root area
// are overwritten.
func New(h *nvm.Heap, cfg Config) *System {
	s := newSystem(h, cfg.withDefaults())
	s.global.Store(firstEpoch)
	s.persisted.Store(firstEpoch - 1)
	h.Store(rootMagicAddr, rootMagic)
	s.eng.Format(firstEpoch - 1) // watermark + engine-identity words (+ log header)
	h.FlushRange(rootMagicAddr, 3)
	h.Fence()
	s.startAdvancer()
	return s
}

// Engine returns the durability engine persisting this system's epochs.
func (s *System) Engine() durability.Engine { return s.eng }

func (s *System) startAdvancer() {
	if s.cfg.Manual {
		close(s.done)
		return
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.EpochLength)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.AdvanceOnce()
			}
		}
	}()
}

// Heap returns the underlying simulated NVM heap.
func (s *System) Heap() *nvm.Heap { return s.heap }

// Allocator returns the underlying persistent allocator.
func (s *System) Allocator() *palloc.Allocator { return s.alloc }

// GlobalEpoch returns the current active epoch.
func (s *System) GlobalEpoch() uint64 { return s.global.Load() }

// PersistedEpoch returns the newest epoch whose updates are fully durable.
func (s *System) PersistedEpoch() uint64 { return s.persisted.Load() }

// SubscribeDurable registers ch to be poked whenever the durable
// watermark advances. Sends are non-blocking and coalescing: if ch is
// full the notification is dropped, so subscribers must treat each
// received value as "the watermark moved" and re-read PersistedEpoch
// for the current value (a buffered channel of capacity 1 is the
// intended shape). The returned cancel function unregisters ch; it is
// idempotent and never closes ch. This is the group-commit hook: a
// server acker subscribes, and on each wake flushes durable acks for
// every op whose commit epoch is now ≤ the watermark.
func (s *System) SubscribeDurable(ch chan<- uint64) (cancel func()) {
	s.subMu.Lock()
	if s.subs == nil {
		s.subs = make(map[uint64]chan<- uint64)
	}
	id := s.subNext
	s.subNext++
	s.subs[id] = ch
	s.subMu.Unlock()
	return func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
	}
}

// notifyDurable pokes every subscriber after the durable watermark
// reaches p. Called from the advance path with advMu held, so it must
// never block: full subscriber channels just miss this wake and catch up
// on the next.
func (s *System) notifyDurable(p uint64) {
	s.subMu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- p:
		default:
		}
	}
	s.subMu.Unlock()
}

// Stats returns a consistent snapshot of epoch-system activity counters.
//
// The advance-side counters (flushed, freed) are published in one short
// burst per flush task under the advSeq seqlock, so a snapshot never
// shows a task's counters half-applied. Retired is bumped worker-side
// outside the seqlock; it is loaded strictly after freed, which keeps
// the fuzzer's conservation invariant (freed <= retired, per shard and
// in aggregate) true in every snapshot: each freed block was retired
// earlier, and both counters are monotone.
func (s *System) Stats() Stats {
	st := Stats{Shards: s.cfg.Shards}
	for {
		s1 := s.advSeq.Load()
		if s1&1 != 0 {
			runtime.Gosched()
			continue
		}
		st.Advances = s.advances.Load()
		st.Backpressure = s.backpressure.Load()
		ps := make([]ShardCounters, s.cfg.Shards)
		var flushed, freed int64
		for i := range ps {
			ps[i].FlushedBlocks = s.shardCtrs[i].flushed.Load()
			ps[i].FreedBlocks = s.shardCtrs[i].freed.Load()
			flushed += ps[i].FlushedBlocks
			freed += ps[i].FreedBlocks
		}
		if s.advSeq.Load() != s1 {
			continue
		}
		st.PerShard = ps
		st.FlushedBlocks = flushed
		st.FreedBlocks = freed
		break
	}
	for i := range st.PerShard {
		v := s.shardCtrs[i].retired.Load()
		st.PerShard[i].RetiredBlocks = v
		st.RetiredBlocks += v
	}
	st.Resurrected = s.resurrected.Load()
	st.RecoveredLive = s.recoveredLive.Load()
	st.RecoveryScanNS = s.recoveryScanNS.Load()
	st.RecoveryRebuildNS = s.recoveryRebuildNS.Load()
	if st.RecoveryScanNS > 0 {
		st.RecoveryWorkers = s.cfg.RecoveryWorkers
	}
	st.AdvanceP99NS = s.advHist.Snapshot().Quantile(0.99)
	st.Engine = s.eng.Name()
	a := s.eng.Accounting()
	st.EngineCommits = a.Commits
	st.EngineFences = a.Fences
	st.EngineFlushes = a.Flushes
	st.EngineLogWords = a.LogWords
	st.LogSpills = a.Spills
	return st
}

// eadr reports whether the heap has a persistent cache, in which case the
// epoch system "automatically disables itself" (Sec. 4.3): background
// flushing is skipped because every store is already durable.
func (s *System) eadr() bool { return s.heap.Mode() == nvm.ModeEADR }

// Stop halts the background advancer. Used before simulating a crash and
// when shutting down cleanly.
func (s *System) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// AdvanceOnce performs one epoch transition e -> e+1. The advance is
// pipelined: the new epoch is published before the closing one is
// persisted, so operations in e+1 overlap the flush of e. On the calling
// goroutine, under the advancer's serialization lock, it
//
//  1. catches up any epoch the watermark is behind — only after Recover,
//     whose watermark P leaves the empty epoch P+1 to persist;
//  2. publishes the new active epoch e+1;
//  3. runs epoch e's task: waits for e to quiesce, flushes every NVM
//     write tracked in e (and the DELETED markers of blocks retired in e)
//     through the durability engine, fanned out across Config.Shards,
//     durably advances the watermark to e, notifies subscribers, and
//     reclaims the blocks retired in e.
//
// Between advances the watermark therefore trails the active epoch by
// one. A crash inside step 3 leaves watermark e-1 under global e+1, the
// P >= crash_epoch-2 bound of the BDL window.
//
// Worker threads are never paused: operations keep starting in the
// active epoch throughout. AdvanceOnce is normally driven by the
// background advancer but may be called directly (Sync, tests, manual
// mode).
func (s *System) AdvanceOnce() {
	s.advMu.Lock()
	defer s.advMu.Unlock()

	t0 := time.Now()
	e := s.global.Load()
	for p := s.persisted.Load(); p < e-1; p = s.persisted.Load() {
		s.runTask(p + 1)
	}
	s.global.Store(e + 1)
	o := s.cfg.Obs
	if o != nil {
		s.closedNS[e%numSlots].Store(o.Now())
		o.SetGauge(obs.GFlusherDepth, 1)
	}
	s.runTask(e)
	if o != nil {
		o.SetGauge(obs.GFlusherDepth, 0)
	}

	s.advances.Add(1)
	d := time.Since(t0)
	if d > s.cfg.EpochLength {
		// The advance outran its epoch: the ticker skips or delays a tick.
		s.backpressure.Add(1)
	}
	s.advHist.Record(e, int64(d))
	if o != nil {
		o.Hit(obs.MAdvances, obs.EvAdvance, e, e+1)
	}
	if s.cfg.OnAdvance != nil {
		s.cfg.OnAdvance(s.persisted.Load())
	}
}

// runTask persists epoch x: it waits for x to quiesce, collects every
// worker's tracked blocks for x partitioned by flusher shard, hands
// them to the durability engine (which writes them back and durably
// advances the watermark to x in its own discipline), and reclaims x's
// retired blocks shard-locally. Callers serialize tasks (advMu) and
// guarantee x < the active epoch.
func (s *System) runTask(x uint64) {
	o := s.cfg.Obs
	t := o.Now()

	// (1) Wait for in-flight operations in x to complete. New operations
	// only ever start in the active epoch, so no new work appears in x.
	s.waitQuiesce(x)
	if o != nil {
		t = o.Phase(obs.PhaseQuiesce, x, t)
	}

	// (2) Collect the per-worker buffers for x, partitioned by shard.
	shards := s.cfg.Shards
	persist := make([][]nvm.Addr, shards)
	retire := make([][]nvm.Addr, shards)
	n := int(s.nWorkers.Load())
	slot := int(x % numSlots)
	for i := 0; i < n; i++ {
		w := s.workers[i]
		buf := &w.bufs[slot]
		persist[w.shard] = append(persist[w.shard], buf.persist...)
		retire[w.shard] = append(retire[w.shard], buf.retire...)
		buf.persist = buf.persist[:0]
		buf.retire = buf.retire[:0]
	}

	// (3)+(4) Hand the epoch's tracked extents to the durability engine,
	// which makes them and the watermark durable in its own discipline
	// (for BDL: the per-shard write-back fan-out, one combining fence,
	// and a flushed watermark bump — the engine also records the
	// PhaseFlush/PhaseRoot samples at the matching points). Under eADR
	// the engine is skipped entirely: every store is already durable and
	// only the watermark word needs recording.
	flushed := make([]int64, shards)
	if !s.eadr() {
		s.eng.Begin(x)
		// Per-block header reads dominate collection, so fan the shard
		// loops out like the flush itself; LogWrite is safe for distinct
		// shards concurrently (it only appends to per-shard batches).
		collect := func(sh int) {
			for _, b := range persist[sh] {
				hdr := s.alloc.ReadHeader(b)
				s.eng.LogWrite(sh, nvm.Extent{Addr: b, Words: palloc.ClassWords(hdr.Class)}, false)
			}
			for _, b := range retire[sh] {
				// Header word + delete-epoch word — 4-word block alignment
				// keeps the pair on one line.
				s.eng.LogWrite(sh, nvm.Extent{Addr: b, Words: 2}, true)
			}
			flushed[sh] = int64(len(persist[sh]))
		}
		if shards == 1 {
			collect(0)
		} else {
			var wg sync.WaitGroup
			for sh := 0; sh < shards; sh++ {
				wg.Add(1)
				go func(sh int) {
					defer wg.Done()
					collect(sh)
				}(sh)
			}
			wg.Wait()
		}
		s.eng.Commit()
		s.persisted.Store(s.eng.Watermark())
		s.notifyDurable(s.eng.Watermark())
		t = o.Now()
	} else {
		if o != nil {
			t = o.Phase(obs.PhaseFlush, x, t)
		}
		durability.StoreWatermark(s.heap, x)
		s.persisted.Store(x)
		s.notifyDurable(x)
		if o != nil {
			t = o.Phase(obs.PhaseRoot, x, t)
		}
	}

	// Durability-SLO gauges: the live BDL window in epochs, and how long
	// this epoch sat closed but volatile before its flush landed.
	if o != nil {
		o.SetGauge(obs.GDurableLagEpochs, int64(s.global.Load()-s.persisted.Load()))
		if c := s.closedNS[x%numSlots].Load(); c > 0 {
			o.SetGauge(obs.GDurableLagNS, o.Now()-c)
		}
	}

	// (5) Blocks retired in x are now reclaimable: their DELETED markers
	// and the root above are durable, so no recovery can resurrect them.
	// Each shard frees into its own allocator magazine, off the other
	// shards' locks.
	if shards == 1 {
		for _, b := range retire[0] {
			s.alloc.Free(b)
		}
	} else {
		var wg sync.WaitGroup
		for sh := 0; sh < shards; sh++ {
			if len(retire[sh]) == 0 {
				continue
			}
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				for _, b := range retire[sh] {
					s.alloc.FreeShard(b, sh)
				}
			}(sh)
		}
		wg.Wait()
	}

	// Publish the task's counter burst under the seqlock so Stats never
	// observes it half-applied.
	s.advSeq.Add(1)
	for sh := 0; sh < shards; sh++ {
		s.shardCtrs[sh].flushed.Add(flushed[sh])
		s.shardCtrs[sh].freed.Add(int64(len(retire[sh])))
	}
	s.advSeq.Add(1)
	if o != nil {
		for sh := 0; sh < shards; sh++ {
			if f := int64(len(retire[sh])); f != 0 {
				o.MetricAdd(obs.MFreedBlocks, uint64(sh), f)
			}
		}
		o.Phase(obs.PhaseReclaim, x, t)
	}
}

// waitQuiesce spins until no worker is announced in epoch target.
func (s *System) waitQuiesce(target uint64) {
	for {
		busy := false
		n := int(s.nWorkers.Load())
		for i := 0; i < n; i++ {
			if s.workers[i].ann.Load() == target {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		runtime.Gosched()
	}
}

// Sync advances epochs until every operation that completed before the
// call is durable, then returns. It must not be called between BeginOp and
// EndOp on the calling thread (the advance would wait for that operation).
func (s *System) Sync() {
	target := s.global.Load()
	for s.persisted.Load() < target {
		s.AdvanceOnce()
	}
}

// Register allocates a Worker for the calling thread. Workers are pooled:
// Release returns one for reuse. Panics when MaxWorkers distinct workers
// are simultaneously live.
func (s *System) Register() *Worker {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if n := len(s.freeIDs); n > 0 {
		id := s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
		return s.workers[id]
	}
	// A fresh ID is allocated under freeMu: read outside it, two callers
	// could take the same ID and one worker would overwrite the other's
	// slot, its buffered blocks never collected.
	id := int(s.nWorkers.Load())
	if id >= s.cfg.MaxWorkers {
		panic(fmt.Sprintf("epoch: more than %d workers", s.cfg.MaxWorkers))
	}
	w := &Worker{sys: s, id: id, shard: id & (s.cfg.Shards - 1)}
	s.workers[id] = w
	s.nWorkers.Store(int32(id + 1)) // publish after the slot is filled
	return w
}

// Release returns a worker to the pool. The caller must have no operation
// in progress. Buffered (not-yet-persisted) writes remain owned by the
// epoch system and are flushed on schedule.
func (s *System) Release(w *Worker) {
	if w.ann.Load() != 0 {
		panic("epoch: Release with operation in progress")
	}
	s.freeMu.Lock()
	s.freeIDs = append(s.freeIDs, w.id)
	s.freeMu.Unlock()
}
