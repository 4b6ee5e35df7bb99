package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/ycsb"
)

// Settings shared by every workload (README.md gives the reasons).
const (
	threads      = 2                    // client connections on kv-serve, workers on skiplist-read
	epochLength  = 2 * time.Millisecond // veb-write sets its own
	drainTimeout = 5 * time.Second
)

// structure is the in-process store a workload drives through its
// public API.
type structure interface {
	// handle registers one epoch worker or skiplist handle. Call it from
	// the main goroutine only: concurrent epoch.System.Register is not
	// safe yet (see README.md).
	handle() handle
	rebuild(r epoch.BlockRecord)
	contents() map[uint64]uint64
	len() int
}

type handle interface {
	insert(k, v uint64) bool
	remove(k uint64) bool
	get(k uint64) (uint64, bool)
	epoch() uint64 // commit epoch of the handle's last write
}

// inprocSpec describes an in-process workload.
type inprocSpec struct {
	layer       string // structure name, used for spans and <layer>.op_cpu_us
	keys        uint64 // key space; half of it is prefilled
	heapWords   int
	cacheLines  int // simulated cache bound in lines; 0 is unbounded
	workers     int // worker goroutines in the timed phase
	rate        int // ops/s cap over all workers; 0 runs them flat out
	epochLength time.Duration
	// setup_s and recovery_s are medians over this many set-ups and
	// crash/recover cycles: more where each one is short and noisier.
	setups, recoveries int
	gen                func(seed uint64) *ycsb.Generator
	build              func(sys *epoch.System, tm *htm.TM) structure
}

// inprocEnv is one set-up instance.
type inprocEnv struct {
	heap *nvm.Heap
	sys  *epoch.System
	tm   *htm.TM
	st   structure
	hs   []handle
	adv  *advancer // traced runs only
}

func (spec *inprocSpec) epochCfg(manual bool) epoch.Config {
	return epoch.Config{EpochLength: spec.epochLength, Manual: manual}
}

// setup builds heap, epoch system, TM and structure, prefills half the
// key space from the main goroutine and registers the worker handles.
func (spec *inprocSpec) setup(o runOpts) *inprocEnv {
	heap := nvm.New(nvm.Config{Words: spec.heapWords, Latency: nvm.OptaneProfile,
		CacheLines: spec.cacheLines, Seed: o.seed})
	sys := epoch.New(heap, spec.epochCfg(o.traced))
	env := &inprocEnv{heap: heap, sys: sys, tm: htm.New(htm.Config{})}
	if o.traced {
		env.adv = startAdvancer(sys, heap, spec.epochLength)
	}
	env.st = spec.build(sys, env.tm)
	h := env.st.handle()
	for _, k := range ycsb.PrefillKeys(spec.keys) {
		h.insert(k, value(k))
	}
	for range spec.workers {
		env.hs = append(env.hs, env.st.handle())
	}
	return env
}

// workerRec is what one worker goroutine measured.
type workerRec struct {
	reads, writes timed  // call start and latency, ns
	wepoch        series // commit epoch of each write
	ops, callNS   int64
	last          int64 // end of the last call
	bad           int64 // GET hits with a wrong value
	badK, badV    uint64
	spans         []span
}

// work runs one worker's ops from start until deadline. With a rate cap
// it sleeps whenever it runs ahead of its share of spec.rate, checking
// every paceEvery ops.
func (spec *inprocSpec) work(id int, h handle, gen *ycsb.Generator, start, deadline int64, traced bool) *workerRec {
	const paceEvery = 64
	r := &workerRec{}
	nsPerOp := 0.0
	if spec.rate > 0 {
		nsPerOp = 1e9 * float64(spec.workers) / float64(spec.rate)
	}
	for i := uint64(0); ; i++ {
		if nsPerOp > 0 && i%paceEvery == 0 {
			if ahead := start + int64(float64(i)*nsPerOp) - now(); ahead > 0 {
				time.Sleep(time.Duration(ahead))
			}
		}
		kind, k, v := gen.Next()
		t0 := now()
		switch kind {
		case ycsb.OpRead:
			got, ok := h.get(k)
			t1 := now()
			r.reads.add(t0, t1-t0)
			r.last = t1
			if ok && got != value(k) {
				r.bad++
				r.badK, r.badV = k, got
			}
		default:
			if kind == ycsb.OpInsert {
				h.insert(k, v)
			} else {
				h.remove(k)
			}
			t1 := now()
			r.writes.add(t0, t1-t0)
			r.wepoch.add(int64(h.epoch()))
			r.last = t1
		}
		r.ops++
		r.callNS += r.last - t0
		if traced && i%spanEvery == 0 {
			s := span{Name: spec.layer + "." + opName(kind), ID: uint64(id)<<48 | i, Start: t0, End: r.last}
			if kind != ycsb.OpRead {
				s.Counters = map[string]int64{"epoch": int64(h.epoch())}
			}
			r.spans = append(r.spans, s)
		}
		if r.last >= deadline {
			return r
		}
	}
}

func opName(k ycsb.OpKind) string {
	switch k {
	case ycsb.OpRead:
		return "get"
	case ycsb.OpInsert:
		return "insert"
	default:
		return "remove"
	}
}

// durWatch records, through SubscribeDurable, when each epoch first
// became durable and how far the watermark had moved past it then.
type durWatch struct {
	sys        *epoch.System
	ch         chan uint64
	cancel     func()
	stop, done chan struct{}
	first      uint64  // covered[i] is epoch first+i
	covered    []int64 // time the epoch was first seen durable
	lag        []int64 // watermark − epoch at that time
	mu         sync.Mutex
	last       uint64 // highest epoch seen durable
}

func startDurWatch(sys *epoch.System) *durWatch {
	d := &durWatch{sys: sys, ch: make(chan uint64, 1), stop: make(chan struct{}), done: make(chan struct{})}
	d.last = sys.PersistedEpoch()
	d.first = d.last + 1
	d.cancel = sys.SubscribeDurable(d.ch)
	go func() {
		defer close(d.done)
		for {
			select {
			case <-d.stop:
				return
			case <-d.ch:
				d.observe()
			}
		}
	}()
	return d
}

func (d *durWatch) observe() {
	p := d.sys.PersistedEpoch()
	t := now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for e := d.last + 1; e <= p; e++ {
		d.covered = append(d.covered, t)
		d.lag = append(d.lag, int64(p-e))
	}
	d.last = max(d.last, p)
}

// waitFor waits until epoch e is durable or the drain timeout passes.
func (d *durWatch) waitFor(e uint64) {
	for limit := time.Now().Add(drainTimeout); time.Now().Before(limit); time.Sleep(time.Millisecond) {
		d.mu.Lock()
		ok := d.last >= e
		d.mu.Unlock()
		if ok {
			return
		}
	}
}

func (d *durWatch) finish() {
	d.cancel()
	close(d.stop)
	<-d.done
}

// at returns when epoch e became durable and the lag then; ok is false
// if it never did.
func (d *durWatch) at(e uint64) (t, lag int64, ok bool) {
	if e < d.first || e-d.first >= uint64(len(d.covered)) {
		return 0, 0, false
	}
	return d.covered[e-d.first], d.lag[e-d.first], true
}

// runInproc runs an in-process workload: set-up, timed phase, drain,
// then Sync, snapshot, crash, recover, rebuild and compare.
func runInproc(spec *inprocSpec, o runOpts) *result {
	res := &result{}

	var setups []float64
	var env *inprocEnv
	repeats := spec.setups
	if o.traced {
		repeats = 1 // the traced run reports no set-up time
	}
	for range repeats {
		if env != nil {
			env.sys.Stop()
			env = nil
			runtime.GC()
		}
		t0 := now()
		env = spec.setup(o)
		setups = append(setups, float64(now()-t0)/1e9)
	}

	memSetup := liveHeap()
	g0, h0, tm0, e0 := readGo(), env.heap.Stats(), env.tm.Stats(), env.sys.Stats()
	watch := startDurWatch(env.sys)
	start := now()
	deadline := start + int64(o.seconds)*1e9
	recs := make([]*workerRec, spec.workers)
	var wg sync.WaitGroup
	for i, h := range env.hs {
		gen := spec.gen(splitmix(o.seed + uint64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = spec.work(i, h, gen, start, deadline, o.traced)
		}()
	}
	wg.Wait()
	g1, h1, tm1, e1 := readGo(), env.heap.Stats(), env.tm.Stats(), env.sys.Stats()
	footprint, live := env.sys.Allocator().FootprintBytes(), env.st.len()

	var ops, callNS, end int64
	var maxEpoch uint64
	var reads, writes []*timed
	var wstart, wepoch []*series
	for _, r := range recs {
		ops += r.ops
		callNS += r.callNS
		end = max(end, r.last)
		reads, writes = append(reads, &r.reads), append(writes, &r.writes)
		wstart, wepoch = append(wstart, &r.writes.at), append(wepoch, &r.wepoch)
		for j := range r.wepoch.len() {
			maxEpoch = max(maxEpoch, uint64(r.wepoch.at(j)))
		}
		if r.bad > 0 {
			res.fail("%d GET hits returned a wrong value (key %d: got %d, want %d)", r.bad, r.badK, r.badV, value(r.badK))
		}
	}
	watch.waitFor(maxEpoch)
	watch.finish()
	env.adv.finish(o.traces)

	// Durable latency: from call start until the write's epoch was seen durable.
	var durable timed
	var lags series
	starts, epochs := flat(wstart...), flat(wepoch...)
	for j, e := range epochs {
		t, lag, ok := watch.at(uint64(e))
		if !ok {
			res.failed++
			continue
		}
		durable.add(starts[j], t-starts[j])
		lags.add(lag)
	}
	res.attempted = ops
	nWrites := int64(len(starts))
	var nReads int64
	for _, r := range reads {
		nReads += int64(r.lat.len())
	}
	if completed := nReads + nWrites - res.failed; completed+res.failed != res.attempted {
		res.fail("attempted %d ops but %d completed and %d failed", res.attempted, completed, res.failed)
	}
	res.tput = float64(ops) / (float64(end-start) / 1e9)
	lat := latencyMetrics("read", start, reads...)
	lat = append(lat, latencyMetrics("write", start, writes...)...)
	lat = append(lat, latencyMetrics("durable", start, &durable)...)
	lagD := newDist(&lags)
	lagP99, nLags := float64(lagD.quantile(0.99)), len(lagD)
	for _, r := range recs {
		for _, s := range r.spans {
			if e, ok := s.Counters["epoch"]; ok {
				if t, _, ok := watch.at(uint64(e)); ok {
					o.traces.add(span{Name: "epoch.durable_wait", ID: s.ID, Parent: s.Name, Start: s.End, End: t})
				}
			}
		}
		o.traces.add(r.spans...)
	}
	// Release the per-op records so that mem_mb measures the program,
	// not the benchmark's samples.
	recs, reads, writes, wstart, wepoch, starts, epochs, lagD = nil, nil, nil, nil, nil, nil, nil, nil
	durable, lags = timed{}, series{}
	memMB := memMetric(memSetup, liveHeap())

	// Everything completed is durable after Sync; it must survive a crash.
	env.sys.Sync()
	snap := env.st.contents()
	for k, v := range snap {
		if v != value(k) {
			res.fail("key %d holds %d before the crash, want %d", k, v, value(k))
			break
		}
	}
	if len(snap) != live {
		res.fail("structure reports %d keys but holds %d", live, len(snap))
	}
	var recov, scans, rebuilds []float64
	var blocks int64
	sys := env.sys
	for c := range spec.recoveries {
		runtime.GC()
		sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: splitmix(o.seed ^ uint64(c))})
		t0 := now()
		var brs []epoch.BlockRecord
		sys = epoch.Recover(env.heap, spec.epochCfg(true), func(r epoch.BlockRecord) { brs = append(brs, r) })
		t1 := now()
		st := spec.build(sys, env.tm)
		for _, r := range brs {
			st.rebuild(r)
		}
		t2 := now()
		ss := sys.Stats()
		recov = append(recov, float64(t2-t0)/1e9)
		scans = append(scans, float64(ss.RecoveryScanNS)/1e6)
		rebuilds = append(rebuilds, float64(ss.RecoveryRebuildNS+t2-t1)/1e6)
		blocks = ss.RecoveredLive
		o.traces.add(
			span{Name: "recovery", ID: uint64(c), Start: t0, End: t2},
			span{Name: "epoch.Recover", ID: uint64(c), Parent: "recovery", Start: t0, End: t1,
				Counters: map[string]int64{"blocks": ss.RecoveredLive, "resurrected": ss.Resurrected}},
			span{Name: spec.layer + ".RebuildBlock", ID: uint64(c), Parent: "recovery", Start: t1, End: t2,
				Counters: map[string]int64{"calls": int64(len(brs))}})
		if err := sameContents(snap, st.contents()); err != nil {
			res.fail("recovery %d: %v", c, err)
		}
	}
	sys.Stop()

	res.e2e = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"throughput_ops_s", res.tput, "1/s", int(ops)},
	}
	res.e2e = append(res.e2e, lat...)
	res.e2e = append(res.e2e,
		metric{"recovery_s", median(recov), "s", len(recov)},
		metric{"nvm_bytes_per_key", ratio(footprint, int64(live)), "B", live},
		memMB)

	if o.traced {
		hd, td := h1.Sub(h0), tm1.Sub(tm0)
		injected := float64(hd.Misses*int64(nvm.OptaneProfile.ReadMissNS)+
			hd.Evictions*int64(nvm.OptaneProfile.WriteBackNS)+
			hd.Flushes*int64(nvm.OptaneProfile.FlushNS)+
			hd.Fences*int64(nvm.OptaneProfile.FenceNS)) / float64(ops) / 1e3
		layers := htmMetrics(td, ops)
		layers = append(layers,
			metric{"nvm.flushes_per_op", ratio(hd.Flushes, ops), "count", 0},
			metric{"nvm.fences_per_op", ratio(hd.Fences, ops), "count", 0},
			metric{"nvm.misses_per_op", ratio(hd.Misses, ops), "count", 0},
			metric{"nvm.evictions_per_op", ratio(hd.Evictions, ops), "count", 0},
			metric{"nvm.injected_us_per_op", injected, "us", 0},
			metric{"nvm.write_amp", hd.WriteAmplification(), "ratio", 0},
			metric{"nvm.media_bytes_per_write", ratio(hd.MediaBytes, nWrites), "B", 0})
		layers = append(layers, env.adv.metrics(start, end)...)
		layers = append(layers,
			metric{"epoch.flushed_blocks_per_advance", ratio(e1.FlushedBlocks-e0.FlushedBlocks, e1.Advances-e0.Advances), "count", 0},
			metric{"epoch.durable_lag_epochs_p99", lagP99, "epochs", nLags},
			metric{"epoch.freed_per_retired", ratio(e1.FreedBlocks-e0.FreedBlocks, e1.RetiredBlocks-e0.RetiredBlocks), "ratio", 0},
			metric{"recovery.scan_ms", median(scans), "ms", len(scans)},
			metric{"recovery.rebuild_ms", median(rebuilds), "ms", len(rebuilds)},
			metric{"recovery.blocks", float64(blocks), "count", 0})
		opCPU := float64(callNS)/float64(ops)/1e3 - injected
		layers = append(layers, structMetrics(spec.layer, opCPU, int(ops))...)
		layers = append(layers, wireMetrics(nil)...)
		layers = append(layers, goMetrics(g0, g1, ops)...)
		res.layers = layers
	}
	return res
}

// htmMetrics derives the htm layer's ratios from a counter delta.
func htmMetrics(d htm.StatsSnapshot, ops int64) []metric {
	return []metric{
		{"htm.attempts_per_op", ratio(d.Attempts(), ops), "count", 0},
		{"htm.aborts_per_commit", ratio(d.Aborts(), d.Commits), "ratio", 0},
		{"htm.fallbacks_per_kop", 1000 * ratio(d.FallbackAcquires, ops), "count", 0},
	}
}

// structMetrics reports op_cpu_us for the structure a workload drives
// and 0 for the one it does not touch.
func structMetrics(layer string, opCPU float64, n int) []metric {
	var ms []metric
	for _, l := range []string{"veb", "skiplist"} {
		m := metric{l + ".op_cpu_us", 0, "us", 0}
		if l == layer {
			m.value, m.n = opCPU, n
		}
		ms = append(ms, m)
	}
	return ms
}

// sameContents compares a recovered map with the pre-crash snapshot.
func sameContents(want, got map[uint64]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return fmt.Errorf("key %d recovered as (%d, %v), want %d", k, g, ok, v)
		}
	}
	return nil
}
