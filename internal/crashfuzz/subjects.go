package crashfuzz

import (
	"fmt"
	"sync"

	"bdhtm/internal/epoch"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

func init() {
	for _, d := range kv.All {
		if d.Recoverable() {
			register(d.Name, func() Subject { return &storeSubject{d: d} })
		}
	}
	register("palloc", func() Subject { return &pallocSubject{} })
}

// storeSubject fuzzes one recoverable kv descriptor.
type storeSubject struct {
	d   *kv.Desc
	env kv.Env
	st  *kv.Store
	hs  []kv.Handle
}

func (s *storeSubject) Name() string                         { return s.d.Name }
func (s *storeSubject) Durability() kv.Durability            { return s.d.Durability }
func (s *storeSubject) Handle(i int) kv.Handle               { return s.hs[i] }
func (s *storeSubject) Heap() *nvm.Heap                      { return s.st.Heap }
func (s *storeSubject) Crash(opts nvm.CrashOptions)          { s.st.Crash(opts) }
func (s *storeSubject) Len() int                             { return s.st.Len() }
func (s *storeSubject) RecoveryRecords() []epoch.BlockRecord { return s.st.Records }

func (s *storeSubject) Init(env kv.Env) {
	s.env = env
	s.st = s.d.Open(env)
	s.mkHandles()
}

func (s *storeSubject) Recover() error {
	st, err := s.d.Recover(s.env, s.st.Heap)
	if err != nil {
		return err
	}
	s.st = st
	s.mkHandles()
	return nil
}

func (s *storeSubject) mkHandles() {
	s.hs = make([]kv.Handle, s.env.Workers)
	for i := range s.hs {
		s.hs[i] = s.st.NewHandle()
	}
}

func (s *storeSubject) GlobalEpoch() uint64 {
	if s.st.Sys == nil {
		return 0
	}
	return s.st.Sys.GlobalEpoch()
}

func (s *storeSubject) PersistedEpoch() uint64 {
	if s.st.Sys == nil {
		return 0
	}
	return s.st.Sys.PersistedEpoch()
}

func (s *storeSubject) Advance() {
	if s.st.Sys != nil {
		s.st.Sys.AdvanceOnce()
	}
}

func (s *storeSubject) LiveBlocks() int64 {
	if s.st.Sys == nil {
		return -1
	}
	return s.st.Sys.Allocator().LiveBlocks()
}

// --- palloc (strict, exercises the allocator itself) ------------------------

// pallocTag marks blocks owned by the fuzzer's allocator subject.
const pallocTag uint8 = 0x3F

// pallocEpoch is the "in use" stamp: anything still at palloc.InvalidEpoch
// on the media was mid-allocation and is reclaimed by recovery.
const pallocEpoch uint64 = 1

// pallocSubject drives the persistent allocator directly: Insert(k, v)
// allocates a class-0 block holding {k, v} and makes it durable with one
// line flush (class-0 blocks never straddle a cache line, so the
// header+payload write-back is failure-atomic); Remove frees it and
// persists the FREE header the same way. A DRAM map mirrors the live set
// and is rebuilt by scanning after a crash.
type pallocSubject struct {
	env  kv.Env
	heap *nvm.Heap
	al   *palloc.Allocator

	mu   sync.Mutex
	live map[uint64]nvm.Addr
}

type pallocHandle struct{ s *pallocSubject }

func (s *pallocSubject) Name() string              { return "palloc" }
func (s *pallocSubject) Durability() kv.Durability { return kv.Strict }

func (s *pallocSubject) Init(env kv.Env) {
	s.env = env
	s.heap = env.NVMHeap()
	s.al = palloc.New(s.heap)
	s.live = make(map[uint64]nvm.Addr)
}

func (s *pallocSubject) Handle(i int) kv.Handle      { return &pallocHandle{s: s} }
func (s *pallocSubject) Heap() *nvm.Heap             { return s.heap }
func (s *pallocSubject) GlobalEpoch() uint64         { return 0 }
func (s *pallocSubject) PersistedEpoch() uint64      { return 0 }
func (s *pallocSubject) Advance()                    {}
func (s *pallocSubject) Crash(opts nvm.CrashOptions) { s.heap.Crash(opts) }
func (s *pallocSubject) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}
func (s *pallocSubject) LiveBlocks() int64 { return s.al.LiveBlocks() }

func (h *pallocHandle) Insert(k, v uint64) bool {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, dup := s.live[k]; dup {
		// Upsert: overwrite the value in place and re-persist the line.
		s.heap.Store(palloc.Payload(b)+1, v)
		s.heap.Flush(b)
		s.heap.Fence()
		return true
	}
	b := s.al.Alloc(0, pallocTag)
	p := palloc.Payload(b)
	s.heap.Store(p, k)
	s.heap.Store(p+1, v)
	s.al.WriteHeader(b, palloc.Header{Status: palloc.Allocated, Class: 0, Tag: pallocTag, Epoch: pallocEpoch})
	s.heap.FlushRange(b, palloc.ClassWords(0))
	s.heap.Fence()
	s.live[k] = b
	return false
}

func (h *pallocHandle) Remove(k uint64) bool {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.live[k]
	if !ok {
		return false
	}
	s.al.Free(b)
	s.heap.Flush(b)
	s.heap.Fence()
	delete(s.live, k)
	return true
}

func (h *pallocHandle) Get(k uint64) (uint64, bool) {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.live[k]
	if !ok {
		return 0, false
	}
	return s.heap.Load(palloc.Payload(b) + 1), true
}

func (h *pallocHandle) LastWriteEpoch() uint64 { return 0 }
func (h *pallocHandle) SetSpan(*obs.Span)      {}

func (s *pallocSubject) Recover() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("palloc: recovery panic: %v", r)
		}
	}()
	s.mu = sync.Mutex{}
	s.al = palloc.New(s.heap)
	if w := s.env.RecoveryWorkers; w > 1 {
		s.al.RecoverParallel(w, func(_ int, bi palloc.BlockInfo) bool {
			return bi.Header.Status == palloc.Allocated && bi.Header.Epoch == pallocEpoch
		})
	} else {
		s.al.Recover(func(bi palloc.BlockInfo) bool {
			return bi.Header.Status == palloc.Allocated && bi.Header.Epoch == pallocEpoch
		})
	}
	live := make(map[uint64]nvm.Addr)
	var dup error
	s.al.Scan(func(bi palloc.BlockInfo) {
		if bi.Header.Status != palloc.Allocated {
			return
		}
		k := s.heap.Load(palloc.Payload(bi.Addr))
		if prev, seen := live[k]; seen {
			dup = fmt.Errorf("palloc: key %d allocated twice (blocks %d and %d)", k, prev, bi.Addr)
			return
		}
		live[k] = bi.Addr
	})
	if dup != nil {
		return dup
	}
	s.live = live
	return nil
}

// CheckInvariants probes for double allocation: fresh blocks handed out
// after recovery must not alias any block the recovered live set owns.
func (s *pallocSubject) CheckInvariants(recovered map[uint64]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(recovered) != len(s.live) {
		return fmt.Errorf("palloc: recovered map has %d keys, live set has %d", len(recovered), len(s.live))
	}
	owned := make(map[nvm.Addr]bool, len(s.live))
	for _, b := range s.live {
		owned[b] = true
	}
	var fresh []nvm.Addr
	for i := 0; i < 8; i++ {
		b := s.al.Alloc(0, pallocTag)
		if owned[b] {
			return fmt.Errorf("palloc: fresh allocation %d aliases a live block", b)
		}
		fresh = append(fresh, b)
	}
	for _, b := range fresh {
		s.al.Free(b)
	}
	return nil
}
