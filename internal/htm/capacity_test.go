package htm

import "testing"

// regionLines returns n words, one per cache line, so each index is a
// distinct conflict-detection line.
func regionLines(n int) []uint64 {
	return make([]uint64, n*8)
}

// TestReadSetBoundaryExact pins that Config.MaxReadLines is the real
// capacity limit: a transaction reading exactly the limit commits, and
// one more line aborts with CauseCapacity.
func TestReadSetBoundaryExact(t *testing.T) {
	const limit = 10
	tm := New(Config{MaxReadLines: limit})
	region := regionLines(limit + 1)
	for _, lines := range []int{limit, limit + 1} {
		res := tm.attempt(func(tx *Tx) {
			for i := 0; i < lines; i++ {
				tx.Load(&region[i*8])
			}
		})
		if lines <= limit && !res.Committed {
			t.Fatalf("reading %d lines with MaxReadLines=%d: aborted %v, want commit", lines, limit, res.Cause)
		}
		if lines > limit && res.Cause != CauseCapacity {
			t.Fatalf("reading %d lines with MaxReadLines=%d: got %v, want CauseCapacity", lines, limit, res.Cause)
		}
	}
}

// TestWriteSetBoundaryExact is the write-side twin of the read test.
func TestWriteSetBoundaryExact(t *testing.T) {
	const limit = 4
	tm := New(Config{MaxWriteLines: limit})
	region := regionLines(limit + 1)
	for _, lines := range []int{limit, limit + 1} {
		res := tm.attempt(func(tx *Tx) {
			for i := 0; i < lines; i++ {
				tx.Store(&region[i*8], uint64(i))
			}
		})
		if lines <= limit && !res.Committed {
			t.Fatalf("writing %d lines with MaxWriteLines=%d: aborted %v, want commit", lines, limit, res.Cause)
		}
		if lines > limit && res.Cause != CauseCapacity {
			t.Fatalf("writing %d lines with MaxWriteLines=%d: got %v, want CauseCapacity", lines, limit, res.Cause)
		}
	}
}

// TestReadSetConfiguredAboveOldFixedCap is the regression test for the
// load-factor bug: the read-tracking table used to be a fixed 1<<14
// slots, whose 75% load-factor guard fired CauseCapacity at ~12288 read
// lines no matter how high MaxReadLines was configured. With table
// capacity derived from config, a 13000-line read set under
// MaxReadLines=16384 must commit.
func TestReadSetConfiguredAboveOldFixedCap(t *testing.T) {
	if testing.Short() {
		t.Skip("large read set")
	}
	const lines = 13000
	tm := New(Config{MaxReadLines: 16384})
	region := regionLines(lines)
	res := tm.attempt(func(tx *Tx) {
		for i := 0; i < lines; i++ {
			tx.Load(&region[i*8])
		}
	})
	if !res.Committed {
		t.Fatalf("reading %d lines with MaxReadLines=16384: aborted %v, want commit", lines, res.Cause)
	}
}

// TestWriteSetConfiguredAboveOldFixedCap is the write-side regression:
// the write-line table used to be a fixed 1<<13 slots (premature full at
// ~6144 lines), so MaxWriteLines above that was unreachable.
func TestWriteSetConfiguredAboveOldFixedCap(t *testing.T) {
	if testing.Short() {
		t.Skip("large write set")
	}
	const lines = 6500
	tm := New(Config{MaxWriteLines: 7000})
	region := regionLines(lines)
	res := tm.attempt(func(tx *Tx) {
		for i := 0; i < lines; i++ {
			tx.Store(&region[i*8], uint64(i))
		}
	})
	if !res.Committed {
		t.Fatalf("writing %d lines with MaxWriteLines=7000: aborted %v, want commit", lines, res.Cause)
	}
	for i := 0; i < lines; i++ {
		if region[i*8] != uint64(i) {
			t.Fatalf("word %d: got %d, want %d after commit", i, region[i*8], i)
		}
	}
}

func TestSetCapacity(t *testing.T) {
	for _, limit := range []int{1, 4, 100, 512, 8192, 16384} {
		capacity := setCapacity(limit)
		if capacity&(capacity-1) != 0 {
			t.Fatalf("setCapacity(%d) = %d, not a power of two", limit, capacity)
		}
		// put must still succeed with limit entries in the table (the
		// insert that trips the configured-limit abort).
		if limit*4 >= capacity*3 {
			t.Fatalf("setCapacity(%d) = %d hits the load-factor guard before the limit", limit, capacity)
		}
	}
}
