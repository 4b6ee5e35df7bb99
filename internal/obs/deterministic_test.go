// Deterministic-stats suite: scripted single-threaded runs against the
// real substrate and structures must produce exactly predictable obs
// counters, and the obs layer must agree with the pre-existing stats
// counters (htm.Stats, nvm.Stats, epoch.Stats) event for event. These
// tests are what pins the instrumentation hooks in place: removing or
// double-firing a hook breaks an exact equality here, not a tolerance.
package obs_test

import (
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/harness"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/ycsb"
)

// TestExactFlushCounts scripts stores and flushes on an ADR heap and
// checks the obs counters give the exact event counts — and match the
// heap's own stats counters one-to-one.
func TestExactFlushCounts(t *testing.T) {
	rec := obs.New("nvm-exact")
	h := nvm.New(nvm.Config{Words: 1 << 16})
	h.SetObs(rec)

	const n = 10
	for i := uint64(0); i < n; i++ {
		a := nvm.Addr(nvm.RootWords + i*nvm.LineWords)
		h.Store(a, i+1)
		h.Flush(a) // dirty line: flush + one line write-back
	}
	h.Fence()

	if got := rec.Metric(obs.MFlushes); got != n {
		t.Errorf("MFlushes = %d, want %d", got, n)
	}
	if got := rec.Metric(obs.MWriteBacks); got != n {
		t.Errorf("MWriteBacks = %d, want %d", got, n)
	}
	if got := rec.Metric(obs.MFences); got != 1 {
		t.Errorf("MFences = %d, want 1", got)
	}

	// Re-flushing clean lines: flushes count, write-backs do not.
	h.FlushRange(nvm.Addr(nvm.RootWords), 3*nvm.LineWords)
	if got := rec.Metric(obs.MFlushes); got != n+3 {
		t.Errorf("MFlushes after FlushRange = %d, want %d", got, n+3)
	}
	if got := rec.Metric(obs.MWriteBacks); got != n {
		t.Errorf("MWriteBacks after clean FlushRange = %d, want %d", got, n)
	}

	// obs and the heap's own stats must agree exactly.
	s := h.Stats()
	if rec.Metric(obs.MFlushes) != s.Flushes {
		t.Errorf("obs flushes %d != heap stats %d", rec.Metric(obs.MFlushes), s.Flushes)
	}
	if rec.Metric(obs.MFences) != s.Fences {
		t.Errorf("obs fences %d != heap stats %d", rec.Metric(obs.MFences), s.Fences)
	}
	if rec.Metric(obs.MWriteBacks) != s.LineWritebacks {
		t.Errorf("obs writebacks %d != heap stats %d", rec.Metric(obs.MWriteBacks), s.LineWritebacks)
	}
	if s.UsefulBytes > s.MediaBytes {
		t.Errorf("useful bytes %d > media bytes %d", s.UsefulBytes, s.MediaBytes)
	}
}

// TestEADRNoFlushes: under eADR every store is durable at visibility, so
// a scripted run must record zero flushes and fences while still counting
// every operation.
func TestEADRNoFlushes(t *testing.T) {
	rec := obs.New("eadr")
	inst := harness.NewSpash(harness.Opts{KeySpace: 1 << 10, Obs: rec})
	defer inst.Close()
	h := inst.NewHandle()
	const n = 64
	for k := uint64(0); k < n; k++ {
		h.Insert(k, k+1)
	}
	if got := rec.Metric(obs.MFlushes); got != 0 {
		t.Errorf("eADR flushes = %d, want 0", got)
	}
	if got := rec.Metric(obs.MFences); got != 0 {
		t.Errorf("eADR fences = %d, want 0", got)
	}
	if got := rec.OpHist(obs.OpInsert).Count; got != n {
		t.Errorf("insert count = %d, want %d", got, n)
	}
}

// TestForcedMemTypeAbort reproduces the Fig. 2 anomaly deterministically:
// with MemTypeRate 1 every plain attempt aborts MEMTYPE, the pre-walk hook
// runs once, and the pre-walked retry commits. Exactly one abort and one
// commit land in obs, mirroring the TM's own counters.
func TestForcedMemTypeAbort(t *testing.T) {
	rec := obs.New("memtype")
	tm := htm.New(htm.Config{MemTypeRate: 1})
	tm.SetObs(rec)

	walks := 0
	res := tm.Atomic(nil, func(tx *htm.Tx) {}, htm.PreWalk(func() { walks++ }))
	if !res.Committed || walks != 1 {
		t.Fatalf("Atomic = %+v after %d pre-walks, want a commit after one", res, walks)
	}

	if got := rec.AttemptHist(obs.OutMemType).Count; got != 1 {
		t.Errorf("memtype attempts = %d, want exactly 1", got)
	}
	if got := rec.AttemptHist(obs.OutCommit).Count; got != 1 {
		t.Errorf("commit attempts = %d, want exactly 1", got)
	}
	s := tm.Stats()
	if s.MemType != 1 || s.Commits != 1 || s.Attempts() != 2 {
		t.Errorf("TM stats = %+v, want 1 memtype + 1 commit", s)
	}
	var histTotal int64
	for o := obs.Outcome(0); o < obs.NumOutcomes; o++ {
		histTotal += rec.AttemptHist(o).Count
	}
	if histTotal != s.Attempts() {
		t.Errorf("obs attempt total %d != TM attempts %d", histTotal, s.Attempts())
	}
}

// subjectBuilders is every harness structure, built with a fresh recorder
// attached to all of its components.
var subjectBuilders = []struct {
	name  string
	build func(harness.Opts) *harness.Instance
}{
	{"HTM-vEB", harness.NewHTMvEB},
	{"PHTM-vEB", harness.NewPHTMvEB},
	{"LB+Tree", harness.NewLBTree},
	{"OCC-abtree", harness.NewOCCTree},
	{"Elim-abtree", harness.NewElimTree},
	{"CCEH", harness.NewCCEH},
	{"Plush", harness.NewPlush},
	{"Spash", harness.NewSpash},
	{"BD-Spash", harness.NewBDSpash},
	{"BD-Hash", harness.NewBDHash},
	{"DL-Skiplist", func(o harness.Opts) *harness.Instance { return harness.NewSkiplist(skiplist.DL, o) }},
	{"BDL-Skiplist", func(o harness.Opts) *harness.Instance { return harness.NewSkiplist(skiplist.BDL, o) }},
}

// TestStructureOpCounts drives every structure through a scripted
// single-threaded run and checks each public operation records exactly
// one histogram entry of the right kind — no missed ops, no
// double-counted ops (e.g. an Insert internally reusing the public
// Get) — plus the cross-layer invariants.
func TestStructureOpCounts(t *testing.T) {
	const inserts, lookups, removes = 100, 50, 25
	for _, b := range subjectBuilders {
		t.Run(b.name, func(t *testing.T) {
			rec := obs.New(b.name)
			inst := b.build(harness.Opts{KeySpace: 1 << 10, Obs: rec, Manual: true})
			defer inst.Close()
			h := inst.NewHandle()
			for k := uint64(0); k < inserts; k++ {
				h.Insert(k, k+1)
			}
			for k := uint64(0); k < lookups; k++ {
				if v, ok := h.Get(k); !ok || v != k+1 {
					t.Fatalf("Get(%d) = %d,%v after insert", k, v, ok)
				}
			}
			for k := uint64(0); k < removes; k++ {
				h.Remove(k)
			}

			if got := rec.OpHist(obs.OpInsert).Count; got != inserts {
				t.Errorf("insert histogram = %d, want %d", got, inserts)
			}
			if got := rec.OpHist(obs.OpLookup).Count; got != lookups {
				t.Errorf("lookup histogram = %d, want %d", got, lookups)
			}
			if got := rec.OpHist(obs.OpRemove).Count; got != removes {
				t.Errorf("remove histogram = %d, want %d", got, removes)
			}

			// Attempts == commits + aborts, and obs mirrors the TM exactly.
			if inst.TMStats != nil {
				s := inst.TMStats()
				if s.Attempts() != s.Commits+s.Conflict+s.Capacity+s.Explicit+s.Locked+s.Spurious+s.MemType+s.PersistOp {
					t.Errorf("TM attempts %d != commits+aborts", s.Attempts())
				}
				var histTotal int64
				for o := obs.Outcome(0); o < obs.NumOutcomes; o++ {
					histTotal += rec.AttemptHist(o).Count
				}
				if histTotal != s.Attempts() {
					t.Errorf("obs attempt total %d != TM attempts %d", histTotal, s.Attempts())
				}
				if got := rec.AttemptHist(obs.OutCommit).Count; got != s.Commits {
					t.Errorf("obs commits %d != TM commits %d", got, s.Commits)
				}
			}

			// obs metric counters mirror the heap's stats counters.
			if inst.NVMStats != nil {
				s := inst.NVMStats()
				if got := rec.Metric(obs.MFlushes); got != s.Flushes {
					t.Errorf("obs flushes %d != heap stats %d", got, s.Flushes)
				}
				if got := rec.Metric(obs.MFences); got != s.Fences {
					t.Errorf("obs fences %d != heap stats %d", got, s.Fences)
				}
				if got := rec.Metric(obs.MWriteBacks); got != s.LineWritebacks {
					t.Errorf("obs writebacks %d != heap stats %d", got, s.LineWritebacks)
				}
				if s.UsefulBytes > s.MediaBytes {
					t.Errorf("useful bytes %d > media bytes %d", s.UsefulBytes, s.MediaBytes)
				}
			}
		})
	}
}

// TestEpochPhaseAccounting: with a manual epoch system, Sync drives a
// known number of advances; obs must agree with epoch.Stats and record
// every phase of every advance exactly once.
func TestEpochPhaseAccounting(t *testing.T) {
	rec := obs.New("epoch")
	inst := harness.NewPHTMvEB(harness.Opts{KeySpace: 1 << 10, Obs: rec, Manual: true})
	defer inst.Close()
	h := inst.NewHandle()
	for k := uint64(0); k < 200; k++ {
		h.Insert(k, k)
	}
	inst.Sync()

	advances := inst.EpochStats().Advances
	if advances == 0 {
		t.Fatal("Sync performed no advances")
	}
	if got := rec.Metric(obs.MAdvances); got != advances {
		t.Errorf("obs advances %d != epoch stats %d", got, advances)
	}
	for p := obs.EpochPhase(0); p < obs.NumEpochPhases; p++ {
		if got := rec.PhaseHist(p).Count; got != advances {
			t.Errorf("phase %v recorded %d times, want once per advance (%d)", p, got, advances)
		}
	}
	if rec.Metric(obs.MAllocs) == 0 {
		t.Error("no allocations recorded for a persistent structure")
	}
}

// TestPerShardStatsParity drives every structure through a scripted run
// with a 4-shard epoch persistence path and checks the obs per-lane
// metric counters agree with epoch.Stats().PerShard exactly, lane by
// lane, and that the lanes sum to the aggregates. Transient and strict
// structures have no epoch system; for those the test only asserts the
// scripted ops complete with the sharded options set (the options must
// be inert, not a crash).
func TestPerShardStatsParity(t *testing.T) {
	const shards = 4
	for _, b := range subjectBuilders {
		t.Run(b.name, func(t *testing.T) {
			rec := obs.New(b.name)
			inst := b.build(harness.Opts{
				KeySpace: 1 << 10, Obs: rec, Manual: true, EpochShards: shards,
			})
			defer inst.Close()
			h := inst.NewHandle()
			for k := uint64(0); k < 240; k++ {
				h.Insert(k, k+1)
			}
			for k := uint64(0); k < 240; k += 2 {
				h.Insert(k, k+2) // upserts retire the replaced blocks
			}
			for k := uint64(1); k < 240; k += 4 {
				h.Remove(k)
			}
			if inst.EpochStats == nil {
				return // no persistence path to decompose
			}
			inst.Sync()
			st := inst.EpochStats()
			if st.Shards != shards {
				t.Fatalf("epoch system runs %d shards, want %d", st.Shards, shards)
			}
			if len(st.PerShard) != shards {
				t.Fatalf("PerShard has %d entries, want %d", len(st.PerShard), shards)
			}
			var flushed, retired, freed int64
			for sh, ps := range st.PerShard {
				lane := sh
				if got := rec.MetricLane(obs.MFlushedBlocks, lane); got != ps.FlushedBlocks {
					t.Errorf("shard %d: obs flushed %d != epoch stats %d", sh, got, ps.FlushedBlocks)
				}
				if got := rec.MetricLane(obs.MRetiredBlocks, lane); got != ps.RetiredBlocks {
					t.Errorf("shard %d: obs retired %d != epoch stats %d", sh, got, ps.RetiredBlocks)
				}
				if got := rec.MetricLane(obs.MFreedBlocks, lane); got != ps.FreedBlocks {
					t.Errorf("shard %d: obs freed %d != epoch stats %d", sh, got, ps.FreedBlocks)
				}
				if ps.FreedBlocks > ps.RetiredBlocks {
					t.Errorf("shard %d: freed %d > retired %d", sh, ps.FreedBlocks, ps.RetiredBlocks)
				}
				flushed += ps.FlushedBlocks
				retired += ps.RetiredBlocks
				freed += ps.FreedBlocks
			}
			if flushed != st.FlushedBlocks || retired != st.RetiredBlocks || freed != st.FreedBlocks {
				t.Errorf("per-shard sums (%d,%d,%d) != aggregates (%d,%d,%d)",
					flushed, retired, freed, st.FlushedBlocks, st.RetiredBlocks, st.FreedBlocks)
			}
			if st.RetiredBlocks == 0 {
				t.Error("scripted upserts retired no blocks; parity check is vacuous")
			}
		})
	}
}

// TestForcedBackpressure scripts the one schedule where an advance must
// block: the background flusher is parked mid-flush on a gate while a
// second epoch is already pending, so the third AdvanceOnce finds the
// pipeline full, counts exactly one backpressure event, and waits. The
// gate is released only after the waiter is observed, making the count
// deterministic rather than timing-dependent.
func TestForcedBackpressure(t *testing.T) {
	rec := obs.New("backpressure")
	heap := nvm.New(nvm.Config{Words: 1 << 16})
	heap.SetObs(rec)
	sys := epoch.New(heap, epoch.Config{
		EpochLength: time.Hour, // ticker never fires; the test owns every advance
		Async:       true,
		Obs:         rec,
	})
	defer sys.Stop()

	var gateOn atomic.Bool
	release := make(chan struct{})
	heap.SetPersistHook(func(nvm.PersistPoint, nvm.Addr) {
		if gateOn.Load() {
			<-release
		}
	})

	waitPersisted := func(e uint64) {
		t.Helper()
		for i := 0; i < 10000; i++ {
			if sys.PersistedEpoch() >= e {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		t.Fatalf("flusher never persisted epoch %d (persisted %d)", e, sys.PersistedEpoch())
	}

	sys.AdvanceOnce() // posts epoch 2 to the flusher
	waitPersisted(2)

	gateOn.Store(true)
	sys.AdvanceOnce() // posts epoch 3; flusher parks on the gate mid-flush

	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.AdvanceOnce() // pipeline full: must count backpressure and wait
	}()

	deadline := time.Now().Add(5 * time.Second)
	for sys.Stats().Backpressure == 0 {
		if time.Now().After(deadline) {
			t.Fatal("third advance never registered backpressure")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("third advance returned while the flusher was parked")
	default:
	}

	gateOn.Store(false)
	close(release)
	<-done
	waitPersisted(4)

	if got := sys.Stats().Backpressure; got != 1 {
		t.Errorf("backpressure events = %d, want exactly 1", got)
	}
	if got := rec.Gauge(obs.GFlusherDepth); got != 0 {
		t.Errorf("flusher depth gauge = %d after drain, want 0", got)
	}
}

// TestObsSurvivesCrash: tracing across a simulated power failure must not
// deadlock, lose the crash event, or double-count post-crash traffic.
func TestObsSurvivesCrash(t *testing.T) {
	rec := obs.New("crash")
	tr := rec.StartTrace(1 << 10)
	h := nvm.New(nvm.Config{Words: 1 << 14})
	h.SetObs(rec)

	a := nvm.Addr(nvm.RootWords)
	h.Store(a, 1)
	h.Persist(a)
	h.Crash(nvm.CrashOptions{})
	if got := rec.Metric(obs.MCrashes); got != 1 {
		t.Fatalf("MCrashes = %d, want 1", got)
	}
	// Recording continues cleanly after the crash.
	h.Store(a, 2)
	h.Persist(a)
	if got := rec.Metric(obs.MFlushes); got != 2 {
		t.Errorf("post-crash flushes = %d, want 2", got)
	}
	var crashes int
	for _, e := range rec.StopTrace().Events() {
		if e.Kind == obs.EvCrash {
			crashes++
		}
	}
	if crashes != 1 {
		t.Errorf("trace holds %d crash events, want 1", crashes)
	}
	_ = tr
}

// TestCollectorEndToEnd runs a real (short) measured workload with the
// collector installed and checks the produced report is schema-valid and
// carries every summary section.
func TestCollectorEndToEnd(t *testing.T) {
	rec := obs.New("collect")
	c := harness.NewCollector(obs.RunConfig{
		KeySpace: 256, DurationNS: int64(20 * time.Millisecond), Threads: []int{2},
	})
	harness.SetCollector(c)
	defer harness.SetCollector(nil)
	harness.SetExperiment("unit")

	inst := harness.NewPHTMvEB(harness.Opts{KeySpace: 256, Obs: rec})
	wl := harness.Workload{KeySpace: 256, Mix: ycsb.WriteHeavy, Prefill: true}
	harness.Run(inst, wl, 2, 20*time.Millisecond, 7)
	inst.Close()
	harness.SetCollector(nil)

	if c.Report.Len() != 1 {
		t.Fatalf("collected %d rows, want 1", c.Report.Len())
	}
	path := t.TempDir() + "/BENCH_unit.json"
	if err := c.Report.WriteFile(path); err != nil {
		t.Fatalf("report failed its own validation: %v", err)
	}
	row := c.Report.Results[0]
	if row.Experiment != "unit" || row.Structure != "PHTM-vEB" || row.Threads != 2 {
		t.Errorf("row identity = %q/%q/%d", row.Experiment, row.Structure, row.Threads)
	}
	if row.Ops <= 0 || row.Mops <= 0 {
		t.Errorf("row has no measured throughput: %+v", row)
	}
	if row.Latency == nil || row.Latency.Count != row.Ops {
		t.Errorf("latency count != ops: %+v vs %d", row.Latency, row.Ops)
	}
	if row.HTM == nil || row.NVM == nil || row.Epoch == nil {
		t.Errorf("missing summary sections: htm=%v nvm=%v epoch=%v", row.HTM, row.NVM, row.Epoch)
	}
	if row.HTM != nil {
		var aborts int64
		for _, n := range row.HTM.Aborts {
			aborts += n
		}
		if row.HTM.Attempts != row.HTM.Commits+aborts {
			t.Errorf("row attempts %d != commits %d + aborts %d", row.HTM.Attempts, row.HTM.Commits, aborts)
		}
	}
}

// TestIdleRatesAreOne is the regression test for the idle-division fix:
// a TM with no attempts reports commit rate 1.0 (not 0), and a heap that
// wrote nothing back reports write amplification 1.0 — both values the
// report validator requires.
func TestIdleRatesAreOne(t *testing.T) {
	if got := htm.Default().Stats().CommitRate(); got != 1.0 {
		t.Errorf("idle CommitRate = %v, want 1.0", got)
	}
	h := nvm.New(nvm.Config{Words: 1 << 12})
	if got := h.Stats().WriteAmplification(); got != 1.0 {
		t.Errorf("idle WriteAmplification = %v, want 1.0", got)
	}
	// Both must survive the validator inside an otherwise-empty row.
	rep := obs.NewReport(obs.RunConfig{})
	rep.Append(obs.BenchRow{
		Experiment: "idle", Structure: "x", Threads: 1, ElapsedNS: 1,
		HTM: &obs.HTMSummary{CommitRate: htm.Default().Stats().CommitRate()},
		NVM: &obs.NVMSummary{WriteAmplification: h.Stats().WriteAmplification()},
	})
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReport(data); err != nil {
		t.Errorf("idle rates rejected by validator: %v", err)
	}
}

// runScripted is the shared loop for the overhead benchmarks: a fixed
// single-threaded op sequence against HTM-vEB.
func runScripted(b *testing.B, o harness.Opts) {
	inst := harness.NewHTMvEB(o)
	defer inst.Close()
	h := inst.NewHandle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 1023
		h.Insert(k, k)
		h.Get(k)
		h.Remove(k)
	}
}

// BenchmarkObsOff / BenchmarkObsOn quantify the instrumentation budget
// (ISSUE: disabled overhead one nil check, enabled ≤5%):
//
//	go test ./internal/obs -bench 'Obs(Off|On)' -count 10 | benchstat
func BenchmarkObsOff(b *testing.B) {
	runScripted(b, harness.Opts{KeySpace: 1 << 10})
}

func BenchmarkObsOn(b *testing.B) {
	runScripted(b, harness.Opts{KeySpace: 1 << 10, Obs: obs.New("bench")})
}
