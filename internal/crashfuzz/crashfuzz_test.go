package crashfuzz

import (
	"fmt"
	"reflect"
	"testing"
)

// defaultSeed is the suite's fixed fuzzing seed; override with
// BDFUZZ_SEED=<n> (decimal or 0x-hex) to explore other schedules. Every
// failure prints a `go run ./cmd/bdfuzz -replay '...'` command that
// reproduces it exactly.
const defaultSeed = 0xbdf022

func shortRounds(t *testing.T) int {
	if testing.Short() {
		return 50
	}
	return 400
}

// TestFuzzAllSubjects runs seeded crash rounds against every registered
// subject: randomized op streams, epoch schedules, crash points
// (including mid-operation and mid-advance power failures via the heap's
// persist hook) and eviction subsets, with exact-prefix checking for
// single-writer rounds and linearizability-window checking for
// concurrent ones.
func TestFuzzAllSubjects(t *testing.T) {
	rounds := shortRounds(t)
	seed := SeedFromEnv(defaultSeed)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if f := Fuzz(NewRoundParams(name, seed), rounds, t.Logf); f != nil {
				t.Fatalf("%s", f.Error())
			}
		})
	}
}

// TestBDHashPhantomRegression pins the round that detects the Listing-1
// phantom-preallocated-block pitfall (DESIGN.md Sec. 6.1): a prealloc
// block stamped with a valid epoch inside a committed transaction but
// left unlinked is resurrected by recovery as a phantom insert, so the
// stamp belongs on the branch that links the block.
//
// Mutation check: moving bdhash.Insert's `newBlk.SetEpochTx` back to the
// top of the transaction body makes `bdfuzz -subject bdhash -seed
// 0xbd0ff -rounds 200` fail with "duplicate key in recovery"; this
// multi-worker round catches it only in some schedules.
func TestBDHashPhantomRegression(t *testing.T) {
	p, err := ParseReplay("subject=bdhash seed=0xe79990bd4ec9ebeb ops=150 workers=4 keyspace=256 evict=0.90 events=1 crash-after=3 crash-step=0 tail-adv=0 adv-every=31 spurious=0.00 memtype=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if f := RunRound(p); f != nil {
		t.Fatalf("%s", f.Error())
	}
}

// TestResolveDeterminism locks down the derive-unless-set contract:
// resolution is a pure function of the seed, and overriding one field
// must not shift what the others derive to (shrunk replays depend on
// this to keep the op stream aligned).
func TestResolveDeterminism(t *testing.T) {
	base := NewRoundParams("bdhash", 12345)
	a := Resolve(base)
	b := Resolve(base)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Resolve not deterministic:\n%+v\n%+v", a, b)
	}

	over := base
	over.Ops = 16
	c := Resolve(over)
	if c.Ops != 16 {
		t.Fatalf("override lost: Ops = %d", c.Ops)
	}
	// Fields with independent draws must be untouched by the override.
	// (CrashAfter is allowed to differ: its range is [0, Ops].)
	if c.KeySpace != a.KeySpace || c.Evict != a.Evict || c.Workers != a.Workers ||
		c.AdvEvery != a.AdvEvery || c.Spurious != a.Spurious || c.MemType != a.MemType ||
		c.CrashEvents != a.CrashEvents || c.TailAdvances != a.TailAdvances ||
		c.Shards != a.Shards || c.Engine != a.Engine || c.FGL != a.FGL {
		t.Fatalf("overriding Ops shifted other derived fields:\n%+v\n%+v", a, c)
	}
}

// TestParseReplayDefaultsPipelineFields ensures replay specs recorded
// before the sharded advance pipeline existed still parse: shards= and
// fgl= are absent, stay at derive defaults, and Resolve fills them. Specs
// recorded with the retired async= field parse to the same round.
func TestParseReplayDefaultsPipelineFields(t *testing.T) {
	const old = "subject=bdhash seed=0x1 ops=16 workers=1 keyspace=32 evict=0.50 events=1 crash-after=4 crash-step=0 tail-adv=0 adv-every=8 spurious=0.00 memtype=0.00"
	p, err := ParseReplay(old)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 0 || p.FGL != Derive {
		t.Fatalf("old-format spec: Shards = %d (want 0 = derive), FGL = %d (want %d = derive)", p.Shards, p.FGL, Derive)
	}
	for _, async := range []string{" async=0", " async=1"} {
		q, err := ParseReplay(old + async)
		if err != nil {
			t.Fatalf("spec with%s: %v", async, err)
		}
		if q != p {
			t.Fatalf("spec with%s parsed to %+v, want %+v", async, q, p)
		}
	}
	r := Resolve(p)
	if r.Shards != 1 && r.Shards != 4 {
		t.Fatalf("resolved Shards = %d, want 1 or 4", r.Shards)
	}
	if r.FGL != 0 && r.FGL != 1 {
		t.Fatalf("resolved FGL = %d, want 0 or 1", r.FGL)
	}
}

// pipelineConfigs is the persistence-path matrix the deterministic crash
// tests sweep: the serial and the sharded flush fan-out.
var pipelineConfigs = []struct {
	name   string
	shards int
}{
	{"shards=1", 1},
	{"shards=4", 4},
}

// TestCrashMidParallelFlush pins power failures inside the sharded flush
// fan-out: the persist hook fires at the n-th persist event past the
// crash point, landing mid-advance while per-shard flushers are writing
// back epoch-closure batches. The engine's crashCheck then asserts the
// full BDL contract — the recovery boundary P satisfies
// P >= crash_epoch - 2, the recovered state is exactly the end-of-epoch-P
// snapshot, and the allocator has one live block per key. Swept over
// both shard widths so a torn per-shard batch (some
// shards flushed, others not, root unwritten) cannot surface as a
// phantom or lost key.
func TestCrashMidParallelFlush(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb"} {
		for _, cfg := range pipelineConfigs {
			t.Run(subject+"/"+cfg.name, func(t *testing.T) {
				t.Parallel()
				for step := 1; step <= 24; step += 2 {
					p := RoundParams{
						Subject: subject, Seed: 0xbd5ead0000 + uint64(step),
						Ops: 48, Workers: 1, KeySpace: 32, Evict: 0.6,
						CrashEvents: 1, CrashAfter: 12, CrashStep: step,
						TailAdvances: 1, AdvEvery: 4, Spurious: 0, MemType: 0,
						Shards: cfg.shards,
					}
					if f := RunRound(p); f != nil {
						t.Fatalf("crash-step %d: %s", step, f.Error())
					}
				}
			})
		}
	}
}

// TestCrashMidPipelinedFlush pins the pipelined advance's crash
// schedule: AdvanceOnce publishes epoch e+1 before epoch e's flush runs,
// so a power failure inside that flush crashes with global = e+1 while
// the root still names e-1 — the exact P = crash_epoch - 2 lower bound
// of the BDL window. The op-boundary variant (CrashStep = 0) crashes
// after the advance completes instead, hitting the P = crash_epoch - 1
// steady state. Both must recover to a snapshotted epoch boundary.
func TestCrashMidPipelinedFlush(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb"} {
		for _, shards := range []int{1, 4} {
			subject, shards := subject, shards
			t.Run(fmt.Sprintf("%s/shards=%d", subject, shards), func(t *testing.T) {
				t.Parallel()
				for _, step := range []int{0, 1, 2, 3, 5, 8, 13} {
					p := RoundParams{
						Subject: subject, Seed: 0xa55bd0000 + uint64(step),
						Ops: 40, Workers: 1, KeySpace: 32, Evict: 1,
						CrashEvents: 2, CrashAfter: 9, CrashStep: step,
						TailAdvances: 2, AdvEvery: 3, Spurious: 0, MemType: 0,
						Shards: shards,
					}
					if f := RunRound(p); f != nil {
						t.Fatalf("crash-step %d: %s", step, f.Error())
					}
				}
			})
		}
	}
}

// TestReplayRoundTrip checks the replay spec encodes every parameter.
func TestReplayRoundTrip(t *testing.T) {
	p := Resolve(NewRoundParams("spash", 0xfeed))
	q, err := ParseReplay(p.ReplayString())
	if err != nil {
		t.Fatal(err)
	}
	q = Resolve(q) // all fields pinned; Resolve must be a no-op
	if p.ReplayString() != q.ReplayString() {
		t.Fatalf("replay round trip drifted:\n%s\n%s", p.ReplayString(), q.ReplayString())
	}
}

// TestRoundsAreIndependent ensures a failing seed can be replayed in
// isolation: running round i of a Fuzz sweep standalone gives the same
// verdict as inside the sweep (rounds share no state).
func TestRoundsAreIndependent(t *testing.T) {
	base := NewRoundParams("veb", SeedFromEnv(defaultSeed))
	for i := 0; i < 5; i++ {
		p := base
		p.Seed = Mix(base.Seed, uint64(i))
		if f := RunRound(p); f != nil {
			t.Fatalf("round %d: %s", i, f.Error())
		}
		if f := RunRound(p); f != nil {
			t.Fatalf("round %d second run: %s", i, f.Error())
		}
	}
}

// TestFuzzSoak is the long-running sweep: skipped in -short runs (CI
// tier-1), available locally and to the nightly lane.
func TestFuzzSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in short mode")
	}
	seed := SeedFromEnv(defaultSeed ^ 0x50a7)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if f := Fuzz(NewRoundParams(name, seed), 1500, nil); f != nil {
				t.Fatalf("%s", f.Error())
			}
		})
	}
}
