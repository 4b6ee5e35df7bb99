package main

import (
	"fmt"
	"os"
	"time"

	"bdhtm/internal/harness"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// recoverExperiment measures parallel crash recovery (Sec. 5.2): BD-Hash
// heaps of increasing size are filled, hit with an unsynced remove wave
// (so the scan also performs resurrection write-backs), power-failed with
// every dirty line evicted, and recovered with 1, 2, 4 and 8 scan
// workers. Each cell rebuilds the identical pre-crash image from scratch,
// so the scan timings are comparable across worker counts.
//
// It exits non-zero when, on the largest heap, every parallel worker
// count recovers slower than the serial scan (with 10% timing slack for
// single-core hosts, where workers only interleave) — the regression
// gate CI's bench-smoke lane relies on (same discipline as
// advanceScaling).
func recoverExperiment() {
	heapSizes := []int{1 << 19, 1 << 21, 1 << 23}
	if *full {
		heapSizes = append(heapSizes, 1<<25)
	}
	workerCounts := []int{1, 2, 4, 8}

	fmt.Printf("\nParallel recovery — BD-Hash, scan+rebuild vs heap size and workers\n")
	fmt.Printf("  %-12s %-8s %12s %12s %10s %12s %10s\n",
		"heap_words", "workers", "scan", "rebuild", "blocks", "resurrected", "speedup")

	var serialScan, bestParScan int64
	var bestParName string
	largest := heapSizes[len(heapSizes)-1]
	for _, words := range heapSizes {
		var baseScan int64
		for _, workers := range workerCounts {
			scan, rebuild, blocks, resurrected := recoverCell(words, workers)
			if workers == 1 {
				baseScan = scan
			}
			speedup := float64(baseScan) / float64(scan)
			fmt.Printf("  %-12d %-8d %12v %12v %10d %12d %9.2fx\n",
				words, workers,
				time.Duration(scan).Round(time.Microsecond),
				time.Duration(rebuild).Round(time.Microsecond),
				blocks, resurrected, speedup)
			if words == largest {
				if workers == 1 {
					serialScan = scan
				} else if bestParScan == 0 || scan < bestParScan {
					bestParScan = scan
					bestParName = fmt.Sprintf("workers=%d", workers)
				}
			}
			harness.AppendRow(obs.BenchRow{
				Structure: "BD-Hash",
				Threads:   workers,
				Dist:      "uniform",
				ReadPct:   0,
				Ops:       blocks,
				ElapsedNS: scan + rebuild,
				Mops:      float64(blocks) / (float64(scan+rebuild) / 1e9) / 1e6,
				Recovery: &obs.RecoverySummary{
					HeapWords:       int64(words),
					Workers:         workers,
					ScanNS:          scan,
					RebuildNS:       rebuild,
					BlocksRecovered: blocks,
					Resurrected:     resurrected,
				},
			})
		}
	}
	if bestParScan > serialScan+serialScan/10 {
		fmt.Fprintf(os.Stderr, "bdbench: recover: parallel regression — best parallel scan (%s, %v) slower than serial (%v) on %d-word heap\n",
			bestParName, time.Duration(bestParScan), time.Duration(serialScan), largest)
		os.Exit(1)
	}
	fmt.Printf("  best parallel on largest heap: %s (%.2fx serial scan)\n",
		bestParName, float64(serialScan)/float64(bestParScan))
}

// recoverCell builds one pre-crash BD-Hash image deterministically, power
// fails it, and recovers with the given worker count. Returns the scan
// and rebuild times (ns) and the block counters.
func recoverCell(heapWords, workers int) (scanNS, rebuildNS, blocks, resurrected int64) {
	records := heapWords / 32
	env := kv.Env{KeySpace: uint64(records) * 2, HeapWords: heapWords, Manual: true}
	st := kv.BDHash.Open(env)
	h := st.NewHandle()
	for k := 0; k < records; k++ {
		h.Insert(uint64(k), uint64(k)*3+1)
	}
	st.Sys.Sync()
	// Unsynced remove wave, fully evicted: the scan must resurrect these.
	for k := 0; k < records/8; k++ {
		h.Remove(uint64(k))
	}
	st.Crash(nvm.CrashOptions{EvictFraction: 1})

	env.RecoveryWorkers = workers
	rec, err := kv.BDHash.Recover(env, st.Heap)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bdbench: recover: %v\n", err)
		os.Exit(1)
	}
	stats := rec.Sys.Stats()
	rec.Close()
	return stats.RecoveryScanNS, max(rec.RebuildNS, 1), int64(len(rec.Records)), stats.Resurrected
}
