package kv

import (
	"math/bits"
	"time"

	"bdhtm/internal/abtree"
	"bdhtm/internal/bdhash"
	"bdhtm/internal/cceh"
	"bdhtm/internal/epoch"
	"bdhtm/internal/lbtree"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/plush"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/spash"
	"bdhtm/internal/veb"
)

// maxKeys is the key-universe bound of structures that take any uint64
// key; only the vEB tree's universe is structurally limited.
const maxKeys = 1 << 40

// rebuilder is the index side of a buffered structure: it is rebuilt
// block by block from a recovered epoch system.
type rebuilder interface {
	RebuildBlock(epoch.BlockRecord)
	Len() int
}

// buffered describes a structure whose DRAM index sits over epoch-tracked
// NVM blocks. index builds the structure on s.Sys and s.TM and sets the
// store's handle and footprint hooks.
func buffered(name, title string, maxKeySpace uint64, index func(e Env, s *Store) rebuilder) *Desc {
	return &Desc{
		Name: name, Title: title, Durability: Buffered, MaxKeySpace: maxKeySpace,
		open: func(e Env) *Store {
			s := &Store{Heap: e.nvmHeap(nvm.ModeADR, 0)}
			s.Sys = epoch.New(s.Heap, e.epochConfig())
			s.TM = e.tm()
			s.size = index(e, s).Len
			return s
		},
		recover: func(e Env, h *nvm.Heap) *Store {
			s := &Store{Heap: h, Records: []epoch.BlockRecord{}}
			s.Sys = epoch.Recover(h, e.epochConfig(), func(r epoch.BlockRecord) {
				s.Records = append(s.Records, r)
			})
			s.TM = e.tm()
			idx := index(e, s)
			s.size = idx.Len
			start := time.Now()
			for _, r := range s.Records {
				idx.RebuildBlock(r)
			}
			s.RebuildNS = time.Since(start).Nanoseconds()
			return s
		},
	}
}

// universeBits is the vEB universe covering [0, KeySpace).
func universeBits(e Env) uint8 { return uint8(bits.Len64(e.KeySpace - 1)) }

// BDHash is the paper's Listing-1 tutorial hash table.
var BDHash = buffered("bdhash", "BD-Hash (Listing 1)", maxKeys, func(e Env, s *Store) rebuilder {
	t := bdhash.New(s.Sys, s.TM, int(e.KeySpace), 1)
	t.SetObs(e.Obs)
	s.newHandle = func() Handle { return &bdhashHandle{epochHandle{t, s.Sys.Register()}, t} }
	return t
})

// VEB is the buffered-durable PHTM-vEB tree (Sec. 4.1).
var VEB = buffered("veb", "PHTM-vEB", 1<<48, func(e Env, s *Store) rebuilder {
	t := veb.New(veb.Config{UniverseBits: universeBits(e), TM: s.TM, DataSys: s.Sys})
	t.SetObs(e.Obs)
	s.newHandle = func() Handle { return &epochHandle{t, s.Sys.Register()} }
	s.dramBytes = t.DRAMBytes
	s.nvmBytes = s.Sys.Allocator().FootprintBytes
	return t
})

// Skiplist is the BDL skiplist (Sec. 4.2).
var Skiplist = buffered("skiplist", skiplist.BDL.String(), maxKeys, func(e Env, s *Store) rebuilder {
	l := skiplistOn(e, skiplist.Config{Variant: skiplist.BDL, IndexHeap: e.dramHeap(), DataSys: s.Sys, TM: s.TM}, s)
	s.dramBytes = l.IndexAllocator().FootprintBytes
	s.nvmBytes = s.Sys.Allocator().FootprintBytes
	return l
})

// Spash is BD-Spash on a conventional ADR machine (Sec. 4.3).
var Spash = buffered("spash", "BD-Spash", maxKeys, func(e Env, s *Store) rebuilder {
	t := spash.New(spash.Config{Mode: spash.ModeBD, Sys: s.Sys, TM: s.TM})
	t.SetObs(e.Obs)
	s.newHandle = func() Handle { return &epochHandle{t, s.Sys.Register()} }
	s.nvmBytes = s.Sys.Allocator().FootprintBytes
	return t
})

// CCEH is the strict CCEH baseline (Fig. 6).
var CCEH = &Desc{
	Name: "cceh", Title: "CCEH", Durability: Strict, MaxKeySpace: maxKeys,
	open: func(e Env) *Store {
		// The directory is pre-allocated at maximum depth (1<<16 words).
		h := e.nvmHeap(nvm.ModeADR, 1<<18)
		return ccehStore(e, h, cceh.New(h, 2))
	},
	recover: func(e Env, h *nvm.Heap) *Store { return ccehStore(e, h, cceh.Recover(h)) },
}

func ccehStore(e Env, h *nvm.Heap, t *cceh.Table) *Store {
	t.SetObs(e.Obs)
	return plainStore(h, t)
}

// LBTree is the strict LB+Tree baseline (Fig. 3, Table 3).
var LBTree = &Desc{
	Name: "lbtree", Title: "LB+Tree", Durability: Strict, MaxKeySpace: maxKeys,
	open: func(e Env) *Store {
		h := e.nvmHeap(nvm.ModeADR, 0)
		return lbtreeStore(e, h, lbtree.New(h))
	},
	recover: func(e Env, h *nvm.Heap) *Store { return lbtreeStore(e, h, lbtree.Recover(h)) },
}

func lbtreeStore(e Env, h *nvm.Heap, t *lbtree.Tree) *Store {
	t.SetObs(e.Obs)
	s := plainStore(h, t)
	s.dramBytes = t.DRAMBytes
	s.nvmBytes = t.NVMBytes
	return s
}

// HTMvEB is the transient HTM-vEB tree (Fig. 1).
var HTMvEB = &Desc{
	Name: "htm-veb", Title: "HTM-vEB", Durability: None, MaxKeySpace: 1 << 48,
	open: func(e Env) *Store {
		s := &Store{TM: e.tm()}
		t := veb.New(veb.Config{UniverseBits: universeBits(e), TM: s.TM})
		t.SetObs(e.Obs)
		s.newHandle = func() Handle { return &epochHandle{t, nil} }
		s.size = t.Len
		s.dramBytes = t.DRAMBytes
		return s
	},
}

// OCCTree and ElimTree are the strict (a,b)-tree baselines (Fig. 3).
var (
	OCCTree  = abtreeDesc("occ-tree", "OCC-Tree", false)
	ElimTree = abtreeDesc("elim-tree", "Elim-Tree", true)
)

func abtreeDesc(name, title string, elim bool) *Desc {
	return &Desc{
		Name: name, Title: title, Durability: Strict, MaxKeySpace: maxKeys,
		open: func(e Env) *Store {
			h := e.nvmHeap(nvm.ModeADR, 0)
			t := abtree.New(h, elim)
			t.SetObs(e.Obs)
			s := plainStore(h, t)
			s.nvmBytes = t.NVMBytes
			return s
		},
	}
}

// SpashEADR is Spash on a simulated eADR machine (Fig. 6).
var SpashEADR = &Desc{
	Name: "spash-eadr", Title: "Spash", Durability: Strict, MaxKeySpace: maxKeys,
	open: func(e Env) *Store {
		s := &Store{Heap: e.nvmHeap(nvm.ModeEADR, 0), TM: e.tm()}
		t := spash.New(spash.Config{Mode: spash.ModeEADR, Heap: s.Heap, TM: s.TM})
		t.SetObs(e.Obs)
		s.newHandle = func() Handle { return &epochHandle{t, nil} }
		s.size = t.Len
		return s
	},
}

// Plush is the strict Plush baseline (Fig. 6). Inserts and removes use
// Plush's native blind-write fast path.
var Plush = &Desc{
	Name: "plush", Title: "Plush", Durability: Strict, MaxKeySpace: maxKeys,
	open: func(e Env) *Store {
		// The level geometry needs room.
		h := e.nvmHeap(nvm.ModeADR, 1<<22)
		t := plush.New(h)
		t.SetObs(e.Obs)
		return &Store{Heap: h, size: t.Len, newHandle: func() Handle { return plushHandle{t} }}
	},
}

// The other four Fig. 5 skiplist variants.
var (
	DLSkiplist        = skiplistDesc("dl-skiplist", skiplist.DL, Strict)
	PNoFlushSkiplist  = skiplistDesc("pnoflush-skiplist", skiplist.PNoFlush, None)
	MwCASSkiplist     = skiplistDesc("mwcas-skiplist", skiplist.PHTMMwCAS, Strict)
	TransientSkiplist = skiplistDesc("transient-skiplist", skiplist.Transient, None)
)

// SkiplistVariant returns the descriptor of a Fig. 5 skiplist variant.
func SkiplistVariant(v skiplist.Variant) *Desc {
	for _, d := range []*Desc{Skiplist, DLSkiplist, PNoFlushSkiplist, MwCASSkiplist, TransientSkiplist} {
		if d.Title == v.String() {
			return d
		}
	}
	panic("kv: unknown skiplist variant " + v.String())
}

// skiplistDesc describes a skiplist variant without an epoch system: the
// index lives on an NVM heap, except for the transient variant's DRAM.
func skiplistDesc(name string, v skiplist.Variant, d Durability) *Desc {
	return &Desc{
		Name: name, Title: v.String(), Durability: d, MaxKeySpace: maxKeys,
		open: func(e Env) *Store {
			s := &Store{}
			cfg := skiplist.Config{Variant: v}
			if v == skiplist.Transient {
				cfg.IndexHeap = e.dramHeap()
			} else {
				s.Heap = e.nvmHeap(nvm.ModeADR, 0)
				cfg.IndexHeap = s.Heap
			}
			if v == skiplist.PHTMMwCAS {
				s.TM = e.tm()
				cfg.TM = s.TM
			}
			l := skiplistOn(e, cfg, s)
			if v == skiplist.Transient {
				s.dramBytes = l.IndexAllocator().FootprintBytes
			}
			return s
		},
	}
}

func skiplistOn(e Env, cfg skiplist.Config, s *Store) *skiplist.List {
	cfg.Threads = e.Workers
	l := skiplist.New(cfg)
	l.SetObs(e.Obs)
	s.newHandle = func() Handle { return listHandle{l.NewHandle()} }
	s.size = l.Len
	return l
}

// --- handles ------------------------------------------------------------------

// epochOps is the operation shape of structures that take the caller's
// epoch worker (nil for their transient modes).
type epochOps interface {
	Insert(w *epoch.Worker, k, v uint64) bool
	Remove(w *epoch.Worker, k uint64) bool
	Get(k uint64) (uint64, bool)
}

type epochHandle struct {
	t epochOps
	w *epoch.Worker
}

func (h *epochHandle) Insert(k, v uint64) bool     { return h.t.Insert(h.w, k, v) }
func (h *epochHandle) Remove(k uint64) bool        { return h.t.Remove(h.w, k) }
func (h *epochHandle) Get(k uint64) (uint64, bool) { return h.t.Get(k) }

func (h *epochHandle) LastWriteEpoch() uint64 {
	if h.w == nil {
		return 0
	}
	return h.w.OpEpoch()
}

func (h *epochHandle) SetSpan(sp *obs.Span) {
	if h.w != nil {
		h.w.SetSpan(sp)
	}
}

// bdhashHandle routes reads through the worker too, so a request span
// sees the lookup's HTM attempts.
type bdhashHandle struct {
	epochHandle
	tab *bdhash.Table
}

func (h *bdhashHandle) Get(k uint64) (uint64, bool) { return h.tab.GetW(h.w, k) }

type listHandle struct{ h *skiplist.Handle }

func (h listHandle) Insert(k, v uint64) bool     { return h.h.Insert(k, v) }
func (h listHandle) Remove(k uint64) bool        { return h.h.Remove(k) }
func (h listHandle) Get(k uint64) (uint64, bool) { return h.h.Get(k) }
func (h listHandle) SetSpan(sp *obs.Span)        { h.h.SetSpan(sp) }

func (h listHandle) LastWriteEpoch() uint64 {
	if w := h.h.Worker(); w != nil {
		return w.OpEpoch()
	}
	return 0
}

// plainOps is the operation shape of the strict baselines.
type plainOps interface {
	Insert(k, v uint64) bool
	Remove(k uint64) bool
	Get(k uint64) (uint64, bool)
	Len() int
}

type plainHandle struct{ plainOps }

func (plainHandle) LastWriteEpoch() uint64 { return 0 }
func (plainHandle) SetSpan(*obs.Span)      {}

func plainStore(h *nvm.Heap, t plainOps) *Store {
	return &Store{Heap: h, size: t.Len, newHandle: func() Handle { return plainHandle{t} }}
}

type plushHandle struct{ t *plush.Table }

func (h plushHandle) Insert(k, v uint64) bool     { h.t.PutBlind(k, v); return false }
func (h plushHandle) Remove(k uint64) bool        { h.t.RemoveBlind(k); return true }
func (h plushHandle) Get(k uint64) (uint64, bool) { return h.t.Get(k) }
func (plushHandle) LastWriteEpoch() uint64        { return 0 }
func (plushHandle) SetSpan(*obs.Span)             {}
