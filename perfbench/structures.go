package main

import (
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/veb"
	"bdhtm/internal/ycsb"
)

// veb-write: PHTM-vEB over a universe of 2^20 keys with uniform keys and
// 40% insert, 40% remove, 20% get. 8192 cache lines (512 KiB) against
// about 16 MiB of live KV blocks, so most accesses miss and evict. One
// worker capped at 200k ops/s, because flat out the advancer's flush and
// reclaim work (about 2 µs per op) saturates the second core; and 50 ms
// epochs, because against 2 ms epochs the host's scheduling stalls set
// the durable latency. README.md gives the measurements.
const vebBits = 20

func runVEBWrite(o runOpts) *result {
	return runInproc(&inprocSpec{
		layer:       "veb",
		keys:        1 << vebBits,
		heapWords:   1 << 23,
		cacheLines:  8192,
		workers:     1,
		rate:        200000,
		epochLength: 50 * time.Millisecond,
		setups:      3,
		recoveries:  5,
		gen: func(seed uint64) *ycsb.Generator {
			return ycsb.NewUniform(1<<vebBits, ycsb.WriteHeavy, seed)
		},
		build: func(sys *epoch.System, tm *htm.TM) structure {
			return vebStore{veb.New(veb.Config{UniverseBits: vebBits, TM: tm, DataSys: sys}), sys}
		},
	}, o)
}

type vebStore struct {
	t   *veb.Tree
	sys *epoch.System
}

func (s vebStore) handle() handle              { return vebHandle{s.t, s.sys.Register()} }
func (s vebStore) rebuild(r epoch.BlockRecord) { s.t.RebuildBlock(r) }
func (s vebStore) len() int                    { return s.t.Len() }
func (s vebStore) contents() map[uint64]uint64 {
	m := map[uint64]uint64{}
	s.t.Range(0, 1<<vebBits-1, func(k, v uint64) bool { m[k] = v; return true })
	return m
}

type vebHandle struct {
	t *veb.Tree
	w *epoch.Worker
}

func (h vebHandle) insert(k, v uint64) bool     { return h.t.Insert(h.w, k, v) }
func (h vebHandle) remove(k uint64) bool        { return h.t.Remove(h.w, k) }
func (h vebHandle) get(k uint64) (uint64, bool) { return h.t.Get(k) }
func (h vebHandle) epoch() uint64               { return h.w.OpEpoch() }

// skiplist-read: BDL skiplist, DRAM towers over NVM KV blocks, 2^16
// keys, zipf 0.99, YCSB B (95% GET). The cache is unbounded, so the
// working set stays resident.
const skiplistKeys = 1 << 16

func runSkiplistRead(o runOpts) *result {
	return runInproc(&inprocSpec{
		layer:       "skiplist",
		workers:     threads,
		epochLength: epochLength,
		keys:        skiplistKeys,
		heapWords:   skiplistKeys * 32,
		setups:      9,
		recoveries:  15,
		gen: func(seed uint64) *ycsb.Generator {
			return ycsb.NewZipfian(skiplistKeys, ycsb.DefaultZipfian, ycsb.Workloads["B"], seed)
		},
		build: func(sys *epoch.System, tm *htm.TM) structure {
			return listStore{skiplist.New(skiplist.Config{
				Variant:   skiplist.BDL,
				IndexHeap: nvm.New(nvm.Config{Words: skiplistKeys * 32, Mode: nvm.ModeDRAM}),
				DataSys:   sys,
				TM:        tm,
				Threads:   threads + 1,
			})}
		},
	}, o)
}

type listStore struct{ l *skiplist.List }

func (s listStore) handle() handle              { return listHandle{s.l.NewHandle()} }
func (s listStore) rebuild(r epoch.BlockRecord) { s.l.RebuildBlock(r) }
func (s listStore) len() int                    { return s.l.Len() }
func (s listStore) contents() map[uint64]uint64 {
	m := map[uint64]uint64{}
	s.l.Ascend(func(k, v uint64) bool { m[k] = v; return true })
	return m
}

type listHandle struct{ h *skiplist.Handle }

func (h listHandle) insert(k, v uint64) bool     { return h.h.Insert(k, v) }
func (h listHandle) remove(k uint64) bool        { return h.h.Remove(k) }
func (h listHandle) get(k uint64) (uint64, bool) { return h.h.Get(k) }
func (h listHandle) epoch() uint64               { return h.h.Worker().OpEpoch() }
