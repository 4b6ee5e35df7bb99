package durability_test

import (
	"fmt"
	"strings"
	"testing"

	"bdhtm/internal/crashfuzz"
	"bdhtm/internal/durability"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
)

// TestEnginesDifferential runs the identical seeded operation trace
// against every registered crashfuzz subject under every durability
// engine, crashes at a quiesced epoch boundary, recovers, and requires
// the post-recovery logical contents and recovery boundary to be
// identical across engines. The engines differ in *how* they make an
// epoch durable (write-back vs undo vs redo vs single-fence), never in
// *what* a recovered heap contains — this test is the contract.
//
// Strict subjects (cceh, lbtree, palloc) ignore the engine entirely and
// pass trivially; the buffered subjects exercise the full epoch-close
// path of each engine, including log formatting, spill segments, and
// per-discipline recovery.
func TestEnginesDifferential(t *testing.T) {
	const keySpace = 64
	for _, subject := range crashfuzz.Names() {
		subject := subject
		t.Run(subject, func(t *testing.T) {
			t.Parallel()
			var (
				first string
				want  map[uint64]uint64
				wantP uint64
			)
			for _, eng := range durability.Names() {
				dump, p := runTrace(t, subject, eng, keySpace)
				if first == "" {
					first, want, wantP = eng, dump, p
					continue
				}
				if p != wantP {
					t.Errorf("engine %s recovered to epoch %d, %s recovered to %d", eng, p, first, wantP)
				}
				if d := diff(dump, want); d != "" {
					t.Errorf("engine %s recovered different contents than %s:%s", eng, first, d)
				}
			}
		})
	}
}

// runTrace drives one subject instance through the scripted trace under
// the given engine and returns the post-recovery dump and boundary.
func runTrace(t *testing.T, subject, engine string, keySpace uint64) (map[uint64]uint64, uint64) {
	t.Helper()
	sub, err := crashfuzz.NewSubject(subject)
	if err != nil {
		t.Fatal(err)
	}
	sub.Init(kv.Env{
		Seed:      0xd1f7,
		KeySpace:  crashfuzz.DefaultKeySpace,
		HeapWords: crashfuzz.DefaultHeapWords,
		Workers:   1,
		Manual:    true,
		Engine:    engine,
	})
	h := sub.Handle(0)
	rng := crashfuzz.Mix(0xd1f7, 0x0d1)
	next := func() uint64 {
		rng = crashfuzz.Mix(rng, 1)
		return rng
	}
	opSeq := uint64(0)
	for i := 0; i < 240; i++ {
		if i > 0 && i%9 == 0 {
			sub.Advance()
		}
		r := next()
		k := (r >> 8) % keySpace
		switch r % 10 {
		case 0, 1, 2, 3, 4, 5:
			opSeq++
			h.Insert(k, opSeq)
		case 6, 7:
			h.Remove(k)
		default:
			h.Get(k)
		}
	}
	// Quiesce so every engine has persisted the same prefix, then crash
	// with no extra evictions: recovery sees exactly what the engine's
	// commit discipline made durable.
	sub.Advance()
	sub.Advance()
	sub.Crash(nvm.CrashOptions{})
	if err := sub.Recover(); err != nil {
		t.Fatalf("engine %s: %v", engine, err)
	}
	h = sub.Handle(0)
	dump := make(map[uint64]uint64)
	for k := uint64(0); k < keySpace; k++ {
		if v, ok := h.Get(k); ok {
			dump[k] = v
		}
	}
	return dump, sub.PersistedEpoch()
}

func diff(got, want map[uint64]uint64) string {
	var b strings.Builder
	for k, v := range want {
		if gv, ok := got[k]; !ok {
			fmt.Fprintf(&b, " key %d: lost value %d;", k, v)
		} else if gv != v {
			fmt.Fprintf(&b, " key %d: got %d want %d;", k, gv, v)
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			fmt.Fprintf(&b, " key %d: phantom value %d;", k, v)
		}
	}
	return b.String()
}
