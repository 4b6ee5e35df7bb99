package main

import (
	"cmp"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/crashfuzz"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/wire"
	"bdhtm/internal/ycsb"
)

// kv-serve: bdserve over bdhash on loopback TCP, 2^16 keys, YCSB A with
// zipf 0.99, buffered acks, the server's own advancer (untraced), and a
// closed loop of 2 connections × a window of 16. A window slot is freed
// by the op's value or applied ack; durable acks arrive outside it.
const (
	kvKeys   = 1 << 16
	kvWindow = 16
	markerID = 0 // ID of the STATS frame that ends a phase; op IDs are never 0
	// setup_s and recovery_s are medians over this many set-ups and
	// crash/recover cycles; each takes well under a second.
	kvSetups     = 9
	kvRecoveries = 21
)

// sentOp is one request in flight.
type sentOp struct {
	id   uint64
	kind ycsb.OpKind
	key  uint64
	sent int64
}

// kvConn is one client connection. hist collects every applied write of
// every phase for the crash check; only the phase's receiver touches it.
type kvConn struct {
	nc   net.Conn
	w    *wire.Writer
	r    *wire.Reader
	lane uint64 // high bits of this connection's request IDs
	seq  uint64
	hist []crashfuzz.Op
}

// kvPhase is what one connection measured in one phase.
type kvPhase struct {
	reads, applied, durable timed // send time and latency
	sent, failed            int64
	completed               int64 // ops whose final response arrived by the deadline
	maxDurableEpoch         uint64
	sendNS, sends           int64
	problems                []string
	spans                   []span
}

func (p *kvPhase) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// opSource yields a connection's next operation; ok false ends the phase.
type opSource func() (kind ycsb.OpKind, k, v uint64, ok bool)

// runPhase drives every connection through one phase: a sender that keeps
// kvWindow requests in flight until its source ends or the deadline (0 for
// none) passes, then sends a STATS marker; and a receiver that matches
// responses and stops once the marker and every durable ack are in.
func runPhase(conns []*kvConn, srcs []opSource, deadline int64, ring *obs.SpanRing) []*kvPhase {
	out := make([]*kvPhase, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		p := &kvPhase{}
		out[i] = p
		slots := make(chan struct{}, kvWindow) // the closed-loop window
		fifo := make(chan sentOp, kvWindow)    // requests in flight, in send order
		recvDone := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(recvDone)
			c.receive(p, fifo, slots, deadline, ring)
		}()
		go func() {
			defer wg.Done()
			c.send(p, srcs[i], fifo, slots, recvDone, deadline, ring)
			// The marker and every durable ack should follow within a few
			// epochs; a connection still waiting after drainTimeout is closed,
			// and whatever it still owed is counted as failed.
			select {
			case <-recvDone:
			case <-time.After(drainTimeout):
				c.nc.Close()
			}
		}()
	}
	wg.Wait()
	return out
}

func (c *kvConn) send(p *kvPhase, src opSource, fifo chan<- sentOp, slots chan struct{}, recvDone <-chan struct{}, deadline int64, ring *obs.SpanRing) {
	for {
		select {
		case slots <- struct{}{}:
		case <-recvDone:
			return // the receiver gave up; nothing more can be answered
		}
		kind, k, v, ok := src()
		t0 := now()
		if !ok || (deadline > 0 && t0 >= deadline) {
			<-slots
			break
		}
		c.seq++
		m := wire.Msg{ID: c.lane<<40 | c.seq, Key: k}
		switch kind {
		case ycsb.OpRead:
			m.Type = wire.CmdGet
		case ycsb.OpInsert:
			m.Type, m.Value = wire.CmdPut, v
		default:
			m.Type = wire.CmdDel
		}
		fifo <- sentOp{m.ID, kind, k, t0}
		p.sent++
		err := c.w.Write(&m)
		if err == nil {
			err = c.w.Flush()
		}
		if err != nil {
			p.fail("sending request %d: %v", m.ID, err)
			return
		}
		if ring != nil {
			t1 := now()
			p.sendNS += t1 - t0
			p.sends++
			if ring.Sampled(m.ID) {
				p.spans = append(p.spans, span{Name: "wire.send", ID: m.ID, Parent: "client.op", Start: t0, End: t1})
			}
		}
	}
	if err := c.w.Write(&wire.Msg{Type: wire.CmdStats, ID: markerID}); err == nil {
		if err := c.w.Flush(); err != nil {
			p.fail("sending end marker: %v", err)
		}
	}
}

// pendingWrite is an applied write waiting for its durable ack.
type pendingWrite struct {
	id, epoch uint64
	sent      int64
}

func (c *kvConn) receive(p *kvPhase, fifo <-chan sentOp, slots <-chan struct{}, deadline int64, ring *obs.SpanRing) {
	var pending []pendingWrite
	durDone := 0
	marker := false
	pop := func(m wire.Msg) (sentOp, bool) {
		select {
		case op := <-fifo:
			<-slots
			if op.id != m.ID {
				p.fail("response %v for request %d while %d was next", m.Type, m.ID, op.id)
				return op, false
			}
			return op, true
		default:
			p.fail("response %v for request %d with nothing in flight", m.Type, m.ID)
			return sentOp{}, false
		}
	}
	opSpan := func(op sentOp, end int64) {
		if ring != nil && ring.Sampled(op.id) {
			p.spans = append(p.spans, span{Name: "client.op", ID: op.id, Start: op.sent, End: end})
		}
	}
	for !marker || durDone < len(pending) {
		m, err := c.r.Read()
		t := now()
		if err != nil {
			p.fail("reading responses: %v", err)
			break
		}
		switch m.Type {
		case wire.RespValue:
			op, ok := pop(m)
			if !ok {
				continue
			}
			p.reads.add(op.sent, t-op.sent)
			if deadline == 0 || t <= deadline {
				p.completed++
			}
			if m.Found && m.Value != value(op.key) {
				p.fail("GET %d returned %d, want %d", op.key, m.Value, value(op.key))
			}
			opSpan(op, t)
		case wire.RespApplied:
			op, ok := pop(m)
			if !ok {
				continue
			}
			p.applied.add(op.sent, t-op.sent)
			c.hist = append(c.hist, crashfuzz.Op{Insert: op.kind == ycsb.OpInsert, K: op.key, V: value(op.key),
				OK: m.OK, Start: uint64(op.sent), End: uint64(t), Epoch: m.Epoch})
			pending = append(pending, pendingWrite{m.ID, m.Epoch, op.sent})
		case wire.RespDurable:
			if durDone == len(pending) || pending[durDone].id != m.ID || pending[durDone].epoch != m.Epoch {
				p.fail("durable ack for request %d (epoch %d) out of applied order", m.ID, m.Epoch)
				continue
			}
			w := pending[durDone]
			durDone++
			p.durable.add(w.sent, t-w.sent)
			p.maxDurableEpoch = max(p.maxDurableEpoch, m.Epoch)
			if deadline == 0 || t <= deadline {
				p.completed++
			}
			opSpan(sentOp{id: w.id, sent: w.sent}, t)
		case wire.RespError:
			if _, ok := pop(m); ok {
				p.failed++
			}
		case wire.RespStats:
			marker = m.ID == markerID
		default:
			p.fail("unexpected %v frame", m.Type)
		}
	}
	// Whatever is still owed got no answer.
	p.failed += int64(len(fifo)) + int64(len(pending)-durDone)
}

// kvServer is one set-up instance: server, clients, prefilled keys.
type kvServer struct {
	srv   *bdserve.Server
	conns []*kvConn
	adv   *advancer
}

func (k *kvServer) closeClients() {
	for _, c := range k.conns {
		c.nc.Close()
	}
}

func kvConfig(o runOpts, rec *obs.Recorder) bdserve.Config {
	return bdserve.Config{KeySpace: kvKeys, EpochLength: epochLength, Manual: o.traced, Obs: rec}
}

// kvSetup starts a server, connects the clients and prefills half the
// key space over the wire, waiting until every prefill write is durable.
func kvSetup(o runOpts, rec *obs.Recorder) (_ *kvServer, err error) {
	srv := bdserve.New(kvConfig(o, rec))
	k := &kvServer{srv: srv}
	if o.traced {
		k.adv = startAdvancer(srv.System(), srv.Heap(), epochLength)
	}
	defer func() {
		if err != nil {
			k.adv.finish(nil)
			k.closeClients()
			srv.Close()
		}
	}()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := range threads {
		nc, err := net.Dial("tcp", addr.String())
		if err != nil {
			return nil, err
		}
		k.conns = append(k.conns, &kvConn{nc: nc, w: wire.NewWriter(nc), r: wire.NewReader(nc), lane: uint64(i) + 1})
	}
	keys := ycsb.PrefillKeys(kvKeys)
	srcs := make([]opSource, threads)
	for i := range srcs {
		next := i
		srcs[i] = func() (ycsb.OpKind, uint64, uint64, bool) {
			if next >= len(keys) {
				return 0, 0, 0, false
			}
			key := keys[next]
			next += threads
			return ycsb.OpInsert, key, value(key), true
		}
	}
	for _, p := range runPhase(k.conns, srcs, 0, nil) {
		if len(p.problems) > 0 || p.failed > 0 {
			return nil, fmt.Errorf("prefill: %d failed, %v", p.failed, p.problems)
		}
	}
	return k, nil
}

// kvLayers is what the traced run adds on kv-serve.
type kvLayers struct {
	sendNS, sends                int64
	inflightSum, ackSum, samples int64
	spans                        []obs.Span
}

func runKVServe(o runOpts) *result {
	res := &result{}
	var rec *obs.Recorder
	if o.traced {
		rec = obs.NewWithClock("perfbench", now)
	}

	var setups []float64
	var k *kvServer
	repeats := kvSetups
	if o.traced {
		repeats = 1
	}
	for range repeats {
		if k != nil {
			k.closeClients()
			k.srv.Close()
			runtime.GC()
		}
		t0 := now()
		var err error
		if k, err = kvSetup(o, rec); err != nil {
			res.fail("set-up: %v", err)
			return res
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	srv := k.srv

	var ring *obs.SpanRing
	if o.traced {
		ring = rec.EnableSpans(1<<14, spanEvery)
	}
	srcs := make([]opSource, threads)
	for i := range srcs {
		gen := ycsb.NewZipfian(kvKeys, ycsb.DefaultZipfian, ycsb.Workloads["A"], splitmix(o.seed+uint64(i)))
		srcs[i] = func() (ycsb.OpKind, uint64, uint64, bool) {
			kind, key, v := gen.Next()
			return kind, key, v, true
		}
	}
	memSetup := liveHeap()
	g0, h0, tm0, e0 := readGo(), srv.Heap().Stats(), srv.TMStats(), srv.System().Stats()
	var gauges kvLayers
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollDone)
		if !o.traced {
			return
		}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				st := srv.Stats()
				gauges.inflightSum += st.Inflight
				gauges.ackSum += st.AckQueue
				gauges.samples++
			}
		}
	}()
	start := now()
	deadline := start + int64(o.seconds)*1e9
	phases := runPhase(k.conns, srcs, deadline, ring)
	close(stopPoll)
	<-pollDone
	g1, h1, tm1, e1 := readGo(), srv.Heap().Stats(), srv.TMStats(), srv.System().Stats()
	maxAckLag := srv.Stats().MaxAckLag
	k.adv.finish(o.traces)
	k.closeClients()

	var reads, applied, durable []*timed
	var completed, maxDurable uint64
	var nWrites int64
	for _, p := range phases {
		res.attempted += p.sent
		res.failed += p.failed
		completed += uint64(p.completed)
		maxDurable = max(maxDurable, p.maxDurableEpoch)
		reads, applied, durable = append(reads, &p.reads), append(applied, &p.applied), append(durable, &p.durable)
		nWrites += int64(p.applied.lat.len())
		gauges.sendNS += p.sendNS
		gauges.sends += p.sends
		res.problems = append(res.problems, p.problems...)
		o.traces.add(p.spans...)
		if answered := int64(p.reads.lat.len() + p.durable.lat.len()); answered+p.failed != p.sent {
			res.fail("sent %d ops but %d were answered and %d failed", p.sent, answered, p.failed)
		}
	}
	res.tput = float64(completed) / float64(o.seconds)
	lat := latencyMetrics("read", start, reads...)
	lat = append(lat, latencyMetrics("write", start, applied...)...)
	lat = append(lat, latencyMetrics("durable", start, durable...)...)
	// Release the per-op samples, and discount the write history kept for
	// the crash check, so that mem_mb measures the server, not the client.
	phases, reads, applied, durable = nil, nil, nil, nil
	var histBytes uint64
	for _, c := range k.conns {
		histBytes += uint64(cap(c.hist)) * uint64(unsafe.Sizeof(crashfuzz.Op{}))
	}
	memMB := memMetric(memSetup, liveHeap()-histBytes)

	state := srv.Dump(kvKeys)
	live := int64(len(state))
	footprint := srv.System().Allocator().FootprintBytes()
	var hist []crashfuzz.Op
	for _, c := range k.conns {
		hist = append(hist, c.hist...)
	}

	// Crash, recover, and check the survivors against the acked history.
	var recov, scans, rebuilds []float64
	var info bdserve.RecoveryInfo
	var first map[uint64]uint64
	cfg := bdserve.Config{KeySpace: kvKeys, Manual: true} // recovered servers serve nothing: no advancer
	for c := range kvRecoveries {
		runtime.GC()
		srv.Crash(nvm.CrashOptions{EvictFraction: 0.5, Seed: splitmix(o.seed ^ uint64(c))})
		t0 := now()
		srv = bdserve.Recover(srv.Heap(), cfg)
		t1 := now()
		recov = append(recov, float64(t1-t0)/1e9)
		info = srv.Recovery()
		scans = append(scans, float64(info.ScanNS)/1e6)
		rebuilds = append(rebuilds, float64(info.RebuildNS)/1e6)
		o.traces.add(span{Name: "bdserve.Recover", ID: uint64(c), Start: t0, End: t1,
			Counters: map[string]int64{"scan_ns": info.ScanNS, "rebuild_ns": info.RebuildNS, "blocks": info.Blocks}})
		got := srv.Dump(kvKeys)
		if c > 0 {
			if err := sameContents(first, got); err != nil {
				res.fail("recovery %d: %v", c, err)
			}
			continue
		}
		first = got
		persisted := srv.System().PersistedEpoch()
		if persisted < maxDurable {
			res.fail("recovered watermark %d is below durable-acked epoch %d", persisted, maxDurable)
		}
		for key, v := range got {
			if v != value(key) {
				res.fail("key %d recovered as %d, want %d", key, v, value(key))
				break
			}
		}
		if err := checkDurable(hist, persisted, got); err != nil {
			res.fail("recovered state: %v", err)
		}
	}
	srv.Close()

	res.e2e = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"throughput_ops_s", res.tput, "1/s", int(completed)},
	}
	res.e2e = append(res.e2e, lat...)
	res.e2e = append(res.e2e,
		metric{"recovery_s", median(recov), "s", len(recov)},
		metric{"nvm_bytes_per_key", ratio(footprint, live), "B", int(live)},
		memMB)

	if o.traced {
		ops := res.attempted
		hd := h1.Sub(h0)
		layers := htmMetrics(tm1.Sub(tm0), ops)
		layers = append(layers,
			metric{"nvm.flushes_per_op", ratio(hd.Flushes, ops), "count", 0},
			metric{"nvm.fences_per_op", ratio(hd.Fences, ops), "count", 0},
			metric{"nvm.misses_per_op", ratio(hd.Misses, ops), "count", 0},
			metric{"nvm.evictions_per_op", ratio(hd.Evictions, ops), "count", 0},
			// bdserve's heap has no latency model, so it injects no delay.
			metric{"nvm.injected_us_per_op", 0, "us", 0},
			metric{"nvm.write_amp", hd.WriteAmplification(), "ratio", 0},
			metric{"nvm.media_bytes_per_write", ratio(hd.MediaBytes, nWrites), "B", 0})
		layers = append(layers, k.adv.metrics(start, deadline)...)
		layers = append(layers,
			metric{"epoch.flushed_blocks_per_advance", ratio(e1.FlushedBlocks-e0.FlushedBlocks, e1.Advances-e0.Advances), "count", 0},
			metric{"epoch.durable_lag_epochs_p99", float64(maxAckLag), "epochs", 0},
			metric{"epoch.freed_per_retired", ratio(e1.FreedBlocks-e0.FreedBlocks, e1.RetiredBlocks-e0.RetiredBlocks), "ratio", 0},
			metric{"recovery.scan_ms", median(scans), "ms", len(scans)},
			metric{"recovery.rebuild_ms", median(rebuilds), "ms", len(rebuilds)},
			metric{"recovery.blocks", float64(info.Blocks), "count", 0})
		layers = append(layers, structMetrics("", 0, 0)...)
		gauges.spans = ring.Spans()
		o.traces.add(serverSpans(gauges.spans, start)...)
		layers = append(layers, wireMetrics(&gauges)...)
		layers = append(layers, goMetrics(g0, g1, ops)...)
		res.layers = layers
	}
	return res
}

// serverPhases names the bdserve span phases the traced run reports,
// each as the interval between two stamps of obs.Span.
var serverPhases = []struct {
	name     string
	from, to obs.SpanPhase
}{
	{"bdserve.queue", obs.SpanDecode, obs.SpanExec},
	{"bdserve.exec", obs.SpanExec, obs.SpanCommit},
	{"bdserve.applied_ack", obs.SpanCommit, obs.SpanApplied},
	{"bdserve.epoch_wait", obs.SpanCommit, obs.SpanFlush},
	{"bdserve.durable_ack", obs.SpanFlush, obs.SpanDurable},
}

// serverSpans converts the server's sampled request spans of the timed
// phase into trace spans under the client's op span.
func serverSpans(spans []obs.Span, from int64) []span {
	var out []span
	for _, s := range spans {
		if s.Phase[obs.SpanDecode] < from {
			continue
		}
		for _, ph := range serverPhases {
			if a, b := s.Phase[ph.from], s.Phase[ph.to]; a > 0 && b > 0 {
				out = append(out, span{Name: ph.name, ID: s.ReqID, Parent: "client.op", Start: a, End: b})
			}
		}
	}
	return out
}

// wireMetrics reports the wire and bdserve layers; a nil l (in-process
// workloads, which bypass both) reports zeros.
func wireMetrics(l *kvLayers) []metric {
	ms := []metric{
		{"wire.client_send_us", 0, "us", 0},
		{"bdserve.inflight_mean", 0, "count", 0},
		{"bdserve.ack_queue_mean", 0, "count", 0},
	}
	for _, ph := range serverPhases {
		ms = append(ms, metric{ph.name + "_us", 0, "us", 0})
	}
	if l == nil {
		return ms
	}
	ms[0].value, ms[0].n = us(l.sendNS)/float64(max(l.sends, 1)), int(l.sends)
	ms[1].value, ms[1].n = ratio(l.inflightSum, l.samples), int(l.samples)
	ms[2].value, ms[2].n = ratio(l.ackSum, l.samples), int(l.samples)
	for i, ph := range serverPhases {
		var d series
		for _, s := range l.spans {
			if a, b := s.Phase[ph.from], s.Phase[ph.to]; a > 0 && b > 0 {
				d.add(b - a)
			}
		}
		dd := newDist(&d)
		ms[3+i].value, ms[3+i].n = us(dd.quantile(0.5)), len(dd)
	}
	return ms
}

// checkDurable checks the recovered state against the applied-write
// history with crashfuzz.CheckRecovered, using each write's applied-ack
// commit epoch. Every PUT of a key carries the same key-derived value,
// so the checker cannot tell which insert a recovered value came from.
// Each insert therefore gets a unique stand-in value, and a recovered
// key is credited to the latest-starting insert inside the epoch cut
// that no in-cut DEL strictly follows; if there is none, the key gets a
// value no insert carries and the checker rejects it.
func checkDurable(hist []crashfuzz.Op, persisted uint64, state map[uint64]uint64) error {
	ops := slices.Clone(hist)
	// Newest first: the checker explains an absent key by the first
	// possibly-later DEL it meets in each key's list.
	slices.SortFunc(ops, func(a, b crashfuzz.Op) int { return cmp.Compare(b.Start, a.Start) })
	lastDel := map[uint64]uint64{} // key -> latest start of an in-cut effectful DEL
	for _, op := range ops {
		if !op.Insert && op.OK && op.Epoch <= persisted {
			lastDel[op.K] = max(lastDel[op.K], op.Start)
		}
	}
	stand := make(map[uint64]uint64, len(state))
	for i := range ops {
		op := &ops[i]
		if !op.Insert {
			continue
		}
		op.V = uint64(i) + 1
		if _, present := state[op.K]; !present || op.Epoch > persisted {
			continue
		}
		if _, done := stand[op.K]; done || lastDel[op.K] > op.End {
			continue
		}
		stand[op.K] = op.V
	}
	for key := range state {
		if _, ok := stand[key]; !ok {
			stand[key] = 0
		}
	}
	return crashfuzz.CheckRecovered(ops, persisted, true, stand)
}
