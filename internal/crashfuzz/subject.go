package crashfuzz

import (
	"fmt"
	"os"
	"sort"
	"strconv"

	"bdhtm/internal/epoch"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
)

// Subject adapts one persistent structure to the fuzzer: init / op /
// crash / recover / dump. Implementations live in subjects.go: every
// recoverable kv descriptor, plus the persistent allocator itself.
type Subject interface {
	Name() string
	Durability() kv.Durability
	// Init builds a fresh structure in env, whose Seed must drive every
	// random decision so that rounds replay. It must be callable again
	// only via Recover.
	Init(env kv.Env)
	// Handle returns per-goroutine session i in [0, env.Workers).
	// Handles are re-created by Recover.
	Handle(i int) kv.Handle
	// Heap returns the persistent heap (for crash-point hooks).
	Heap() *nvm.Heap
	// GlobalEpoch returns the active epoch (Buffered; 0 for Strict).
	GlobalEpoch() uint64
	// PersistedEpoch returns the newest durable epoch; after Recover it
	// is the recovery boundary P (Buffered; 0 for Strict).
	PersistedEpoch() uint64
	// Advance performs one manual epoch transition (no-op for Strict).
	Advance()
	// Crash power-fails the structure. All handles become invalid.
	Crash(opts nvm.CrashOptions)
	// Recover rebuilds the structure and fresh handles from the heap's
	// persistent image. Structure-level recovery panics (duplicate keys,
	// probe overflow) are returned as errors.
	Recover() error
	// Len returns the structure's key count (cross-checked against the
	// engine's dump).
	Len() int
	// LiveBlocks returns the data allocator's live-block count, or -1 if
	// the subject has no one-block-per-key accounting. Immediately after
	// Recover it must equal Len() — more means a phantom or leak.
	LiveBlocks() int64
}

// InvariantChecker is an optional Subject extension: a structure-specific
// audit run after recovery and the generic state check.
type InvariantChecker interface {
	CheckInvariants(recovered map[uint64]uint64) error
}

// RecoveryRecorder is an optional Subject extension exposing the
// BlockRecords the last Recover delivered to the rebuild callback, in
// delivery order. The parallel-recovery equivalence matrix compares the
// record sequence across worker counts; kv subjects implement it (strict
// ones, with no epoch rebuild, deliver none), the allocator subject does
// not.
type RecoveryRecorder interface {
	RecoveryRecords() []epoch.BlockRecord
}

// --- registry ---------------------------------------------------------------

var registry = map[string]func() Subject{}

func register(name string, mk func() Subject) {
	if _, dup := registry[name]; dup {
		panic("crashfuzz: duplicate subject " + name)
	}
	registry[name] = mk
}

// Names returns all registered subject names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewSubject builds a fresh, uninitialized subject by name.
func NewSubject(name string) (Subject, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("crashfuzz: unknown subject %q (have %v)", name, Names())
	}
	return mk(), nil
}

// SeedFromEnv returns the fuzzing seed: BDFUZZ_SEED if set (decimal or
// 0x-hex), otherwise def. Every randomized test path derives its RNG from
// this one value so that failures reproduce from a single knob.
func SeedFromEnv(def uint64) uint64 {
	s := os.Getenv("BDFUZZ_SEED")
	if s == "" {
		return def
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return def
	}
	return v
}

// Mix derives a stream seed from a master seed and an index (splitmix64).
func Mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	return z
}
