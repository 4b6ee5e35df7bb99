// Package obs is the repository's unified observability layer: one
// low-overhead telemetry hub threaded through the substrate packages
// (htm, nvm, epoch, palloc) and every data structure's operation hot
// path. It provides the measurement backbone behind the paper's entire
// evaluation — commit/abort breakdowns (Fig. 2), persist-cost and
// write-amplification accounting (Sec. 5.1), epoch-advance stall
// attribution (Fig. 7) — as reusable machinery instead of per-experiment
// ad-hoc printing.
//
// Components:
//
//   - Counter: lock-free sharded event counters (counter.go).
//   - Hist: log-scale latency histograms, per op type (insert / remove /
//     lookup), per HTM attempt outcome (commit vs. each abort cause),
//     and per epoch-advance phase (hist.go).
//   - Tracer: a sharded ring-buffer event tracer with Chrome
//     trace_event and JSONL exporters (trace.go).
//   - Report: the stable BENCH_*.json machine-readable benchmark schema
//     and its validator (report.go).
//   - StartHTTP: an optional expvar/pprof/live-snapshot HTTP endpoint
//     for long runs (http.go).
//
// Overhead discipline: a nil *Recorder is a valid, fully disabled
// recorder — every method is nil-safe, and instrumented call sites guard
// with a single pointer test (`if obs != nil`), so the disabled cost is
// one predictable branch. When enabled, the hot paths touch only sharded
// atomics; the tracer adds one atomic pointer load unless a trace is
// actually active.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// NumShards is the number of independent lanes every counter and
// histogram is striped across. Callers pick a lane with any cheap
// per-thread-ish value (worker ID, key, timestamp); correctness never
// depends on the choice, only contention does.
const (
	NumShards = 32
	shardMask = NumShards - 1
)

// OpKind classifies a structure-level operation.
type OpKind uint8

const (
	OpInsert OpKind = iota
	OpRemove
	OpLookup

	NumOps
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpRemove:
		return "remove"
	case OpLookup:
		return "lookup"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Outcome classifies one HTM attempt. The values mirror htm.AbortCause
// one-to-one (checked by a static assertion in package htm, which cannot
// be imported here without a cycle).
type Outcome uint8

const (
	OutCommit Outcome = iota
	OutConflict
	OutCapacity
	OutExplicit
	OutLocked
	OutSpurious
	OutMemType
	OutPersistOp

	NumOutcomes
)

func (o Outcome) String() string {
	switch o {
	case OutCommit:
		return "commit"
	case OutConflict:
		return "conflict"
	case OutCapacity:
		return "capacity"
	case OutExplicit:
		return "explicit"
	case OutLocked:
		return "locked"
	case OutSpurious:
		return "spurious"
	case OutMemType:
		return "memtype"
	case OutPersistOp:
		return "persist-op"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// EpochPhase names one stage of an epoch advance (epoch.AdvanceOnce):
// the announce→drain→flush→bump timeline whose stalls the paper's Fig. 7
// attributes to epoch length and write-back volume.
type EpochPhase uint8

const (
	// PhaseQuiesce is the announce→drain stall: waiting for in-flight
	// operations of the closing epoch to complete.
	PhaseQuiesce EpochPhase = iota
	// PhaseFlush is the background write-back of every block tracked in
	// the closing epoch.
	PhaseFlush
	// PhaseRoot is the durable bump of the persisted-epoch root.
	PhaseRoot
	// PhaseReclaim is the deferred reclamation of retired blocks.
	PhaseReclaim
	// PhaseShardFlush is one flusher shard's slice of PhaseFlush: the
	// parallel fan-out records one sample per shard per advance, keyed by
	// shard index, so per-shard flush skew is visible. (Appended after
	// the original phases: trace events encode the phase number in Arg1,
	// so the enum order is part of the trace format.)
	PhaseShardFlush

	NumEpochPhases
)

func (p EpochPhase) String() string {
	switch p {
	case PhaseQuiesce:
		return "quiesce"
	case PhaseFlush:
		return "flush"
	case PhaseRoot:
		return "root"
	case PhaseReclaim:
		return "reclaim"
	case PhaseShardFlush:
		return "shard-flush"
	default:
		return fmt.Sprintf("EpochPhase(%d)", uint8(p))
	}
}

// Metric names one sharded event counter.
type Metric uint8

const (
	MFlushes    Metric = iota // explicit line flushes (clwb)
	MFences                   // store fences
	MWriteBacks               // capacity-eviction write-backs
	MAllocs                   // palloc block allocations
	MFrees                    // palloc block frees
	MAdvances                 // epoch transitions
	MCrashes                  // simulated power failures
	MRecoveries               // recovery passes

	// Per-shard epoch block-lifecycle counters (appended; enum order is
	// part of the trace format). The epoch system bumps these with the
	// flusher-shard index as the lane, so LoadLane-level parity against
	// epoch.Stats.PerShard is exact when shard counts stay <= NumShards.
	MFlushedBlocks // blocks written back at epoch close
	MRetiredBlocks // blocks retired (PRetire) awaiting reclamation
	MFreedBlocks   // retired blocks reclaimed after their epoch persisted

	// Durability-engine self-accounting (appended; enum order is part
	// of the trace format). The engine bumps these for every fence and
	// flush it issues on the epoch-close path, so per-engine fence
	// budgets are checkable against the heap-level MFences/MFlushes.
	MEngineCommits // epoch-close commits executed by the durability engine
	MEngineFences  // fences issued by the durability engine
	MEngineFlushes // flush operations issued by the durability engine (lane = shard)
	MLogSpills     // log-overflow segments sealed mid-commit

	// Service-layer counters for bdserve (appended; enum order is part
	// of the trace format). The server bumps these with the connection
	// index as the lane, so per-connection ack conservation (durable acks
	// == write commits, applied acks == write commits in buffered mode)
	// is checkable from telemetry alone.
	MServeConns       // connections accepted
	MServeReqs        // request frames decoded and dispatched
	MServeAppliedAcks // applied acks written (buffered mode)
	MServeDurableAcks // durable acks written by the group-commit acker

	// Recovery-outcome counters (appended; enum order is part of the
	// trace format). epoch.Recover bumps these once per pass with the
	// header-judgment totals, so recovered-block counts are comparable
	// across worker counts from telemetry alone (the parallel-recovery
	// equivalence matrix pins them identical to the serial scan).
	MRecoveredBlocks   // live blocks recovered by the header judgment
	MResurrectedBlocks // deleted-but-unpersisted blocks rolled back to live

	// Hybrid-fallback counters (appended; enum order is part of the trace
	// format). The HTM unit bumps these on the slow path, so fallback
	// pressure (how many slow-path runs started, how many lines
	// fine-grained sessions locked, how many fast-path aborts they caused)
	// is visible from telemetry alone.
	MFallbackAcquires // slow-path runs started (both fallback modes)
	MFallbackLines    // lines locked by slow-path runs (lock word in global mode)
	MFallbackBlocked  // transaction aborts caused by a fallback-held line

	NumMetrics
)

func (m Metric) String() string {
	switch m {
	case MFlushes:
		return "flushes"
	case MFences:
		return "fences"
	case MWriteBacks:
		return "writebacks"
	case MAllocs:
		return "allocs"
	case MFrees:
		return "frees"
	case MAdvances:
		return "advances"
	case MCrashes:
		return "crashes"
	case MRecoveries:
		return "recoveries"
	case MFlushedBlocks:
		return "flushed-blocks"
	case MRetiredBlocks:
		return "retired-blocks"
	case MFreedBlocks:
		return "freed-blocks"
	case MEngineCommits:
		return "engine-commits"
	case MEngineFences:
		return "engine-fences"
	case MEngineFlushes:
		return "engine-flushes"
	case MLogSpills:
		return "log-spills"
	case MServeConns:
		return "serve-conns"
	case MServeReqs:
		return "serve-reqs"
	case MServeAppliedAcks:
		return "serve-applied-acks"
	case MServeDurableAcks:
		return "serve-durable-acks"
	case MRecoveredBlocks:
		return "recovered-blocks"
	case MResurrectedBlocks:
		return "resurrected-blocks"
	case MFallbackAcquires:
		return "fallback-acquires"
	case MFallbackLines:
		return "fallback-lines"
	case MFallbackBlocked:
		return "fallback-blocked"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// GaugeID names one instantaneous (settable, non-monotonic) value.
type GaugeID uint8

const (
	// GFlusherDepth is the async epoch advancer's queue depth: the number
	// of closed epochs whose flush has been handed to the background
	// flusher but not yet completed (0 or 1 under the two-epoch window).
	GFlusherDepth GaugeID = iota

	// Service-layer gauges (appended). GServeConns is open connections;
	// GServeInflight is requests decoded but not yet applied-acked;
	// GServeAckQueue is ops applied but awaiting their durable ack. All
	// three must drain to zero when every client disconnects cleanly —
	// the race-lane conservation test pins that.
	GServeConns
	GServeInflight
	GServeAckQueue

	// Durability-SLO gauges (appended). GDurableLagEpochs is the
	// distance global-epoch − persisted-epoch after each persist step
	// (the live BDL window); GDurableLagNS is how long the most recently
	// persisted epoch sat closed-but-volatile; GOldestUnackedNS is the
	// age of the oldest write applied but not yet durable-acked, the
	// head of the service's durability backlog.
	GDurableLagEpochs
	GDurableLagNS
	GOldestUnackedNS

	NumGauges
)

func (g GaugeID) String() string {
	switch g {
	case GFlusherDepth:
		return "flusher-depth"
	case GServeConns:
		return "serve-conns"
	case GServeInflight:
		return "serve-inflight"
	case GServeAckQueue:
		return "serve-ack-queue"
	case GDurableLagEpochs:
		return "durable-lag-epochs"
	case GDurableLagNS:
		return "durable-lag-ns"
	case GOldestUnackedNS:
		return "oldest-unacked-ns"
	default:
		return fmt.Sprintf("GaugeID(%d)", uint8(g))
	}
}

// SvcHist names one service-level latency histogram: the ack-latency and
// durability-lag distributions behind the server's SLO reporting. The
// enum order is part of the exported metric set; append only.
type SvcHist uint8

const (
	// SvcAppliedAckNS: request decode → applied-ack write.
	SvcAppliedAckNS SvcHist = iota
	// SvcDurableAckNS: request decode → durable-ack write.
	SvcDurableAckNS
	// SvcAckLagNS: HTM commit → durable-ack write, the per-request
	// buffered-durability window in wall time.
	SvcAckLagNS
	// SvcAckLagEpochs: watermark − commit epoch at the durable ack (a
	// histogram over small integers, not nanoseconds).
	SvcAckLagEpochs

	NumSvcHists
)

func (h SvcHist) String() string {
	switch h {
	case SvcAppliedAckNS:
		return "applied-ack-ns"
	case SvcDurableAckNS:
		return "durable-ack-ns"
	case SvcAckLagNS:
		return "ack-lag-ns"
	case SvcAckLagEpochs:
		return "ack-lag-epochs"
	default:
		return fmt.Sprintf("SvcHist(%d)", uint8(h))
	}
}

// Recorder is the telemetry hub one benchmark run (or one test) attaches
// to the substrate and structures. A nil *Recorder is valid and records
// nothing; all methods are nil-safe.
type Recorder struct {
	name string
	base time.Time
	now  func() int64 // ns since an arbitrary epoch; monotonic

	ops      [NumOps]Hist
	attempts [NumOutcomes]Hist
	phases   [NumEpochPhases]Hist
	svc      [NumSvcHists]Hist
	metrics  [NumMetrics]Counter
	gauges   [NumGauges]atomic.Int64

	tracer atomic.Pointer[Tracer]
	spans  atomic.Pointer[SpanRing]
}

// New creates an enabled recorder using the monotonic wall clock.
func New(name string) *Recorder {
	base := time.Now()
	return &Recorder{
		name: name,
		base: base,
		now:  func() int64 { return int64(time.Since(base)) },
	}
}

// NewWithClock creates a recorder driven by an arbitrary clock, for
// deterministic tests. The clock must be monotonic (never decrease).
func NewWithClock(name string, now func() int64) *Recorder {
	return &Recorder{name: name, now: now}
}

// Name returns the recorder's label ("" for a nil recorder).
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Now returns the recorder's clock reading, or 0 for a nil recorder.
// Instrumented sites pass it back to EndOp/Attempt/Phase as the start
// timestamp.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// EndOp records the completion of one structure-level operation that
// began at start (a prior Now reading): latency goes to the op-kind
// histogram and, when a trace is active, one EvOp event is emitted.
// shard is any cheap spreading value (key, worker ID).
func (r *Recorder) EndOp(k OpKind, shard uint64, start int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.ops[k].Record(shard, end-start)
	if tr := r.tracer.Load(); tr != nil {
		tr.emit(Event{TS: start, Dur: end - start, Kind: EvOp, Shard: uint16(shard & shardMask), Arg1: uint64(k)})
	}
}

// Attempt records one HTM attempt that began at start, classified by
// outcome.
func (r *Recorder) Attempt(o Outcome, shard uint64, start int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.attempts[o].Record(shard, end-start)
	if tr := r.tracer.Load(); tr != nil {
		tr.emit(Event{TS: start, Dur: end - start, Kind: EvAttempt, Shard: uint16(shard & shardMask), Arg1: uint64(o)})
	}
}

// Phase records one epoch-advance phase that began at start, tagging the
// trace event with the epoch being closed. It returns the end timestamp
// so the caller can chain phases without re-reading the clock.
func (r *Recorder) Phase(p EpochPhase, epoch uint64, start int64) int64 {
	if r == nil {
		return 0
	}
	end := r.now()
	r.phases[p].Record(epoch, end-start)
	if tr := r.tracer.Load(); tr != nil {
		tr.emit(Event{TS: start, Dur: end - start, Kind: EvEpochPhase, Shard: uint16(epoch & shardMask), Arg1: uint64(p), Arg2: epoch})
	}
	return end
}

// Hit bumps a metric counter and, when a trace is active, emits one
// instant event of the given kind. shard doubles as the event's first
// argument (an address, an epoch).
func (r *Recorder) Hit(m Metric, kind EventKind, shard, arg2 uint64) {
	if r == nil {
		return
	}
	r.metrics[m].Add(shard, 1)
	if tr := r.tracer.Load(); tr != nil {
		tr.emit(Event{TS: r.now(), Kind: kind, Shard: uint16(shard & shardMask), Arg1: shard, Arg2: arg2})
	}
}

// MetricAdd bumps a metric counter by delta on the given lane without
// emitting a trace event — the bulk form Hit used by the epoch flusher
// to publish a whole shard's worth of block counts at once.
func (r *Recorder) MetricAdd(m Metric, shard uint64, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.metrics[m].Add(shard, delta)
}

// Metric returns the current value of one counter (0 for nil recorders).
func (r *Recorder) Metric(m Metric) int64 {
	if r == nil {
		return 0
	}
	return r.metrics[m].Load()
}

// MetricLane returns one lane of a counter — the per-shard view used by
// the sharded-epoch parity tests. Lanes beyond NumShards wrap.
func (r *Recorder) MetricLane(m Metric, lane int) int64 {
	if r == nil {
		return 0
	}
	return r.metrics[m].LoadLane(lane)
}

// SetGauge publishes an instantaneous value.
func (r *Recorder) SetGauge(g GaugeID, v int64) {
	if r == nil {
		return
	}
	r.gauges[g].Store(v)
}

// Gauge reads an instantaneous value (0 for nil recorders).
func (r *Recorder) Gauge(g GaugeID) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].Load()
}

// OpHist returns a snapshot of one op-kind latency histogram.
func (r *Recorder) OpHist(k OpKind) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.ops[k].Snapshot()
}

// AttemptHist returns a snapshot of one attempt-outcome latency
// histogram.
func (r *Recorder) AttemptHist(o Outcome) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.attempts[o].Snapshot()
}

// PhaseHist returns a snapshot of one epoch-phase duration histogram.
func (r *Recorder) PhaseHist(p EpochPhase) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.phases[p].Snapshot()
}

// SvcRecord records one service-level sample (a latency or an epoch
// count, per the SvcHist's unit) into lane shard.
func (r *Recorder) SvcRecord(h SvcHist, shard uint64, v int64) {
	if r == nil {
		return
	}
	r.svc[h].Record(shard, v)
}

// SvcSnapshot returns the merged snapshot of one service histogram.
func (r *Recorder) SvcSnapshot(h SvcHist) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.svc[h].Snapshot()
}

// EnableSpans attaches a span ring sampling one request in every to the
// recorder and returns it; SampleSpan draws from it until DisableSpans.
func (r *Recorder) EnableSpans(capacity, every int) *SpanRing {
	if r == nil {
		return nil
	}
	sr := NewSpanRing(capacity, every)
	r.spans.Store(sr)
	return sr
}

// DisableSpans detaches the span ring (completed spans stay readable on
// the returned ring).
func (r *Recorder) DisableSpans() *SpanRing {
	if r == nil {
		return nil
	}
	return r.spans.Swap(nil)
}

// SpanRing returns the active span ring, or nil.
func (r *Recorder) SpanRing() *SpanRing {
	if r == nil {
		return nil
	}
	return r.spans.Load()
}

// SampleSpan starts a span for a request if spans are enabled and the
// request ID is sampled; otherwise it returns nil, for the cost of one
// atomic load. The span arrives with SpanDecode stamped at the current
// clock reading.
func (r *Recorder) SampleSpan(reqID, conn uint64, op uint8) *Span {
	if r == nil {
		return nil
	}
	sr := r.spans.Load()
	if sr == nil || !sr.Sampled(reqID) {
		// The sampling decision comes before the clock read: unsampled
		// requests (the overwhelming majority at production rates) must
		// not pay for a timestamp they will never use.
		return nil
	}
	return sr.sample(reqID, conn, op, r.now())
}

// SpanCounts reports the active ring's sampled/dropped totals (0, 0
// when spans are disabled).
func (r *Recorder) SpanCounts() (sampled, dropped int64) {
	if r == nil {
		return 0, 0
	}
	sr := r.spans.Load()
	if sr == nil {
		return 0, 0
	}
	sampled, dropped, _ = sr.Counts()
	return sampled, dropped
}

// StartTrace activates event tracing with room for roughly capacity
// events (split across shards; older events are overwritten once a
// shard's ring fills). It returns the tracer, which stays readable after
// tracing is stopped.
func (r *Recorder) StartTrace(capacity int) *Tracer {
	if r == nil {
		return nil
	}
	tr := newTracer(capacity)
	r.tracer.Store(tr)
	return tr
}

// StopTrace detaches the active tracer (events already captured remain
// readable on the returned tracer).
func (r *Recorder) StopTrace() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer.Swap(nil)
}

// Tracer returns the active tracer, or nil.
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer.Load()
}

// Snapshot captures every histogram and counter, for the -obs summary,
// the expvar endpoint, and tests. Call it while the workload is paused
// for exact values; concurrent calls see a possibly-torn but safe view.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Name:        r.Name(),
		Ops:         map[string]HistSnapshot{},
		Attempts:    map[string]HistSnapshot{},
		EpochPhases: map[string]HistSnapshot{},
		Metrics:     map[string]int64{},
	}
	if r == nil {
		return s
	}
	for k := OpKind(0); k < NumOps; k++ {
		if h := r.ops[k].Snapshot(); h.Count > 0 {
			s.Ops[k.String()] = h
		}
	}
	for o := Outcome(0); o < NumOutcomes; o++ {
		if h := r.attempts[o].Snapshot(); h.Count > 0 {
			s.Attempts[o.String()] = h
		}
	}
	for p := EpochPhase(0); p < NumEpochPhases; p++ {
		if h := r.phases[p].Snapshot(); h.Count > 0 {
			s.EpochPhases[p.String()] = h
		}
	}
	for v := SvcHist(0); v < NumSvcHists; v++ {
		if h := r.svc[v].Snapshot(); h.Count > 0 {
			if s.Service == nil {
				s.Service = map[string]HistSnapshot{}
			}
			s.Service[v.String()] = h
		}
	}
	for m := Metric(0); m < NumMetrics; m++ {
		if v := r.metrics[m].Load(); v != 0 {
			s.Metrics[m.String()] = v
		}
	}
	for g := GaugeID(0); g < NumGauges; g++ {
		if v := r.gauges[g].Load(); v != 0 {
			if s.Gauges == nil {
				s.Gauges = map[string]int64{}
			}
			s.Gauges[g.String()] = v
		}
	}
	if tr := r.tracer.Load(); tr != nil {
		s.TraceEvents, s.TraceDropped = tr.Counts()
	}
	if sr := r.spans.Load(); sr != nil {
		s.SpansSampled, s.SpansDropped, _ = sr.Counts()
	}
	return s
}

// Snapshot is the JSON-friendly point-in-time view of a Recorder.
type Snapshot struct {
	Name         string                  `json:"name"`
	Ops          map[string]HistSnapshot `json:"ops"`
	Attempts     map[string]HistSnapshot `json:"attempts"`
	EpochPhases  map[string]HistSnapshot `json:"epoch_phases"`
	Service      map[string]HistSnapshot `json:"service,omitempty"`
	Metrics      map[string]int64        `json:"metrics"`
	Gauges       map[string]int64        `json:"gauges,omitempty"`
	TraceEvents  int64                   `json:"trace_events"`
	TraceDropped int64                   `json:"trace_dropped"`
	SpansSampled int64                   `json:"spans_sampled,omitempty"`
	SpansDropped int64                   `json:"spans_dropped,omitempty"`
}
