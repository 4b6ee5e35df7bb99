// Package kv is the one registry of keyed structures. Every structure the
// repository benchmarks, fuzzes, serves or recovers is described once
// here: how to open it from a shared environment, how to recover it from
// a crashed heap, what it promises across a crash and how large a key
// universe it supports. The bench harness, the crash fuzzer, the KV
// service and the recovery tool all build their structures through it,
// so a structure is sized and wired the same way wherever it runs.
//
// The shape follows the scheme-agnostic single interface of the
// reclamation literature: callers program against Desc, Store and
// Handle, and each structure plugs in behind them.
package kv

import (
	"fmt"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// Env is the shared environment a structure is opened in: the simulated
// heaps, the TM and the epoch system are all built from it, and Obs is
// attached to every one of them and to the structure itself.
type Env struct {
	// KeySpace sizes the structure for keys in [0, KeySpace) (default
	// 1<<16): bdhash's capacity and the vEB universe derive from it.
	KeySpace uint64
	// HeapWords sizes the NVM heap and any DRAM index heap (default
	// 32 words per key, at least 1<<21).
	HeapWords int
	// Workers is the number of handles open at once: it sizes the
	// skiplist's thread slots and the epoch worker table (0 = the
	// structures' own defaults).
	Workers int
	// Seed drives the heap eviction RNG and the HTM abort-injection RNG,
	// so seeded runs replay exactly (0 = the simulators' defaults).
	Seed uint64
	// Latency enables the Optane latency model on NVM heaps (DRAM index
	// heaps stay free), reproducing the paper's NVM/DRAM asymmetry.
	Latency bool
	// CacheLines bounds the simulated cache (0 = unbounded); a bounded
	// cache adds seeded background evictions.
	CacheLines int
	// SpuriousRate and MemTypeRate inject HTM abort churn; MemTypeRate
	// also reproduces the Fig. 2 MEMTYPE anomaly.
	SpuriousRate float64
	MemTypeRate  float64
	// GlobalFallback selects the legacy single-word fallback lock instead
	// of the default fine-grained hybrid slow path.
	GlobalFallback bool
	// EpochLength, Manual, Shards, Engine and RecoveryWorkers shape the
	// epoch system of buffered structures (see epoch.Config).
	EpochLength     time.Duration
	Manual          bool
	Shards          int
	Engine          string
	RecoveryWorkers int
	// RecoveryTick reports recovery scan progress (see epoch.Config).
	RecoveryTick func(slabs, recovered, resurrected int64)
	// Obs, when non-nil, records every component's events.
	Obs *obs.Recorder
}

func (e Env) withDefaults() Env {
	if e.KeySpace == 0 {
		e.KeySpace = 1 << 16
	}
	if e.HeapWords == 0 {
		e.HeapWords = max(int(e.KeySpace)*32, 1<<21)
	}
	return e
}

// NVMHeap builds a persistent ADR heap, for callers that lay out their
// own data on it (the fuzzer's allocator subject).
func (e Env) NVMHeap() *nvm.Heap { return e.withDefaults().nvmHeap(nvm.ModeADR, 0) }

// nvmHeap builds a persistent heap (ADR or eADR) of at least minWords.
func (e Env) nvmHeap(mode nvm.Mode, minWords int) *nvm.Heap {
	cfg := nvm.Config{
		Words:      max(e.HeapWords, minWords),
		Mode:       mode,
		Seed:       e.Seed ^ 0x9e3779b97f4a7c15,
		CacheLines: e.CacheLines,
	}
	if e.Latency {
		cfg.Latency = nvm.OptaneProfile
	}
	h := nvm.New(cfg)
	h.SetObs(e.Obs)
	return h
}

// dramHeap builds a transient heap for a DRAM-resident index.
func (e Env) dramHeap() *nvm.Heap {
	return nvm.New(nvm.Config{Words: e.HeapWords, Mode: nvm.ModeDRAM})
}

func (e Env) tm() *htm.TM {
	var seed uint64
	if e.Seed != 0 {
		seed = e.Seed ^ 0x7fb5d329728ea185
	}
	tm := htm.New(htm.Config{
		Seed:                seed,
		SpuriousRate:        e.SpuriousRate,
		MemTypeRate:         e.MemTypeRate,
		PreWalkResidualRate: e.MemTypeRate / 10,
		GlobalFallback:      e.GlobalFallback,
	})
	tm.SetObs(e.Obs)
	return tm
}

func (e Env) epochConfig() epoch.Config {
	return epoch.Config{
		EpochLength:     e.EpochLength,
		Manual:          e.Manual,
		Shards:          e.Shards,
		Engine:          e.Engine,
		RecoveryWorkers: e.RecoveryWorkers,
		RecoveryTick:    e.RecoveryTick,
		MaxWorkers:      e.Workers,
		Obs:             e.Obs,
	}
}

// Durability classifies what a structure promises across a crash.
type Durability int

const (
	// Buffered structures (BDL structures on the epoch system) recover
	// the state at the end of some persisted epoch P >= crash_epoch - 2.
	Buffered Durability = iota
	// Strict structures make every completed operation durable before
	// returning; recovery reproduces all of them, with at most the single
	// in-flight operation ambiguous.
	Strict
	// None marks transient structures: a crash loses everything.
	None
)

// Handle is a goroutine-private session on a store. Insert is an upsert
// reporting whether an existing value was replaced; Remove reports
// whether the key was present.
type Handle interface {
	Insert(k, v uint64) bool
	Remove(k uint64) bool
	Get(k uint64) (uint64, bool)
	// LastWriteEpoch is the exact commit epoch of the handle's last
	// completed write (buffered structures; 0 otherwise).
	LastWriteEpoch() uint64
	// SetSpan brackets one request with its sampled span (nil detaches),
	// so every HTM attempt the operation makes is counted on it.
	SetSpan(sp *obs.Span)
}

// Store is one opened structure and the components it was built on.
type Store struct {
	Heap *nvm.Heap     // persistent heap; nil for transient structures
	Sys  *epoch.System // epoch system; nil unless buffered
	TM   *htm.TM       // nil for structures that run no transactions

	// Records are the blocks the last Recover rebuilt the index from, in
	// delivery order, and RebuildNS the rebuild's wall time (buffered
	// structures only).
	Records   []epoch.BlockRecord
	RebuildNS int64

	newHandle func() Handle
	size      func() int
	dramBytes func() int64
	nvmBytes  func() int64
}

// NewHandle opens a goroutine-private session.
func (s *Store) NewHandle() Handle { return s.newHandle() }

// Len returns the structure's key count.
func (s *Store) Len() int { return s.size() }

// DRAMBytes is the index's DRAM footprint (0 where not accounted).
func (s *Store) DRAMBytes() int64 { return call(s.dramBytes) }

// NVMBytes is the structure's NVM footprint (0 where not accounted).
func (s *Store) NVMBytes() int64 { return call(s.nvmBytes) }

func call(f func() int64) int64 {
	if f == nil {
		return 0
	}
	return f()
}

// Close stops background machinery (the epoch advancer); remaining
// buffered epochs are flushed.
func (s *Store) Close() {
	if s.Sys != nil {
		s.Sys.Stop()
	}
}

// Crash power-fails the store. All handles become invalid.
func (s *Store) Crash(opts nvm.CrashOptions) {
	if s.Sys != nil {
		s.Sys.SimulateCrash(opts)
	} else {
		s.Heap.Crash(opts)
	}
}

// Desc describes one structure.
type Desc struct {
	// Name is the registry key (the -structure/-subject value).
	Name string
	// Title is the structure's name in reports and figures.
	Title      string
	Durability Durability
	// MaxKeySpace is the largest Env.KeySpace the structure supports.
	MaxKeySpace uint64

	open    func(e Env) *Store
	recover func(e Env, h *nvm.Heap) *Store
}

// Open builds a fresh structure in env.
func (d *Desc) Open(env Env) *Store { return d.open(env.withDefaults()) }

// Recoverable reports whether the structure can be recovered from a
// crashed heap.
func (d *Desc) Recoverable() bool { return d.recover != nil }

// Recover rebuilds the structure from the persistent image of a crashed
// heap that Open formatted in a compatible env (same Engine). A panic in
// structure-level recovery (duplicate keys, a corrupt directory) is
// returned as an error.
func (d *Desc) Recover(env Env, heap *nvm.Heap) (s *Store, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("%s: recovery panic: %v", d.Name, r)
		}
	}()
	return d.recover(env.withDefaults(), heap), nil
}

// All lists every descriptor in registry order.
var All = []*Desc{
	BDHash, VEB, Skiplist, Spash, CCEH, LBTree,
	HTMvEB, OCCTree, ElimTree, SpashEADR, Plush,
	DLSkiplist, PNoFlushSkiplist, MwCASSkiplist, TransientSkiplist,
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (*Desc, error) {
	for _, d := range All {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("kv: unknown structure %q (have %v)", name, Names(func(*Desc) bool { return true }))
}

// Names lists the registry keys of the descriptors keep selects, in
// registry order.
func Names(keep func(*Desc) bool) []string {
	var names []string
	for _, d := range All {
		if keep(d) {
			names = append(names, d.Name)
		}
	}
	return names
}

// IsBuffered selects the buffered-durable descriptors.
func IsBuffered(d *Desc) bool { return d.Durability == Buffered }
