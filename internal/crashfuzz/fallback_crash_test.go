package crashfuzz

import (
	"fmt"
	"testing"

	"bdhtm/internal/obs"
)

// TestResolveDrawsBothFallbackModes checks the fgl draw actually explores
// both disciplines across seeds, so fuzz sweeps cover the fine-grained
// hybrid path and the legacy global lock.
func TestResolveDrawsBothFallbackModes(t *testing.T) {
	seen := map[int]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		p := Resolve(NewRoundParams("bdhash", seed))
		if p.FGL != 0 && p.FGL != 1 {
			t.Fatalf("seed %d resolved FGL = %d", seed, p.FGL)
		}
		seen[p.FGL] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("32 seeds drew only FGL values %v", seen)
	}
}

// TestCrashMidFallbackWrite pins power failures while operations are
// running down the fallback slow path: a spurious-abort rate of 1 kills
// every fast-path attempt, so every operation spends the retry budget and
// reaches the structures through the slow path — fine-grained sessions at
// fgl=1, the global lock at fgl=0 — and the persist hook then
// power-fails at the n-th persist event past the crash point. crashCheck
// asserts the full BDL window on the recovered image for every buffered
// subject, and the round's telemetry must show slow-path runs.
//
// Crashing mid-fallback is the interesting schedule for the slow path:
// its writes are buffered and applied at finish, so a power failure must
// never observe a half-applied run ahead of the recovery boundary.
func TestCrashMidFallbackWrite(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb", "skiplist", "spash"} {
		for _, fgl := range []int{0, 1} {
			subject, fgl := subject, fgl
			t.Run(fmt.Sprintf("%s/fgl=%d", subject, fgl), func(t *testing.T) {
				t.Parallel()
				var acquires int64
				for _, step := range []int{1, 2, 3, 5, 9, 15} {
					p := RoundParams{
						Subject: subject, Seed: 0xf6bd0000 + uint64(step),
						Ops: 32, Workers: 1, KeySpace: 32, Evict: 1,
						CrashEvents: 1, CrashAfter: 10, CrashStep: step,
						TailAdvances: 1, AdvEvery: 5, Spurious: 1, MemType: 0,
						Shards: 1, Async: 0, FGL: fgl,
					}
					rec := roundObs()
					if f := runRound(p, rec); f != nil {
						t.Fatalf("crash-step %d: %s", step, f.Error())
					}
					acquires += rec.Metric(obs.MFallbackAcquires)
				}
				if acquires == 0 {
					t.Fatal("no operation reached the slow path")
				}
			})
		}
	}
}

// TestConcurrentHybridFallbackRounds runs multi-worker rounds with heavy
// abort injection, so fast-path commits, slow-path runs, commit
// write-backs and session restarts interleave across workers before the
// quiesced crash; the linearizability-window checker then validates the
// recovered state. A spurious-abort rate of 0.95 sends about one
// operation in five (0.95^32) to the slow path and commits the rest on
// the fast path; each fallback mode must show both.
func TestConcurrentHybridFallbackRounds(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb", "skiplist", "spash"} {
		subject := subject
		t.Run(subject, func(t *testing.T) {
			t.Parallel()
			for _, fgl := range []int{1, 0} {
				var acquires, commits int64
				for i := 0; i < 4; i++ {
					p := RoundParams{
						Subject: subject, Seed: 0xfb9d0000 + uint64(i),
						Ops: 60, Workers: 4, KeySpace: 16, Evict: 0.8,
						CrashEvents: 1, CrashAfter: 0, CrashStep: 0,
						TailAdvances: 1, AdvEvery: 4, Spurious: 0.95, MemType: 0.01,
						Shards: 1, Async: 0, FGL: fgl,
					}
					rec := roundObs()
					if f := runRound(p, rec); f != nil {
						t.Fatalf("fgl=%d round %d: %s", fgl, i, f.Error())
					}
					acquires += rec.Metric(obs.MFallbackAcquires)
					commits += rec.AttemptHist(obs.OutCommit).Count
				}
				if acquires == 0 || commits == 0 {
					t.Fatalf("fgl=%d: %d slow-path runs and %d fast-path commits, want both > 0", fgl, acquires, commits)
				}
			}
		})
	}
}
