package main

import (
	"io"
	"strings"
	"testing"

	"bdhtm/internal/durability"
)

// TestEngineFormattedHeapRecovers is the regression for bdrecover
// ignoring the durability engine: it used to open the heap with
// epoch.New's default (bdl) config and recover the same way, so a heap
// formatted by any logging engine panicked on the engine-identity check
// at recovery. With -engine threaded into both configs, every engine's
// fill/crash/recover/verify cycle must pass.
func TestEngineFormattedHeapRecovers(t *testing.T) {
	for _, eng := range durability.Names() {
		t.Run(eng, func(t *testing.T) {
			err := run(runConfig{
				structure: "bdhash",
				records:   400,
				evict:     1,
				tail:      40,
				engine:    eng,
				workers:   1,
				out:       io.Discard,
			})
			if err != nil {
				t.Fatalf("engine %s: %v", eng, err)
			}
		})
	}
}

// TestParallelWorkersVerify runs the full cycle at each fuzzed worker
// count, including the progress-report path.
func TestParallelWorkersVerify(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		var sb strings.Builder
		err := run(runConfig{
			structure: "bdhash",
			records:   400,
			evict:     0.5,
			tail:      40,
			workers:   w,
			progress:  true,
			out:       &sb,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v\noutput:\n%s", w, err, sb.String())
		}
		if !strings.Contains(sb.String(), "verified: all 400") {
			t.Fatalf("workers=%d: missing verification line:\n%s", w, sb.String())
		}
	}
}
