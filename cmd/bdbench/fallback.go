package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"bdhtm/internal/harness"
	"bdhtm/internal/htm"
	"bdhtm/internal/obs"
)

// fallbackExperiment measures the mixed big/small workload the
// fine-grained hybrid slow path exists for: one capacity-bound writer
// loops forever down the slow path (its write set is one line past
// MaxWriteLines, so every attempt aborts with CauseCapacity and Atomic
// takes the slow path) while N small read-modify-write transactions on
// disjoint private lines run for the measurement interval. Under the
// legacy global lock the small transactions subscribe and stall for
// every slow-path run; on the fine-grained path they share no lines with
// the writer and keep committing mid-fallback.
//
// Rows land in the bdhtm-bench/v1 report with full small-transaction
// latency percentiles and the HTM commit/abort/fallback breakdown. The
// experiment exits non-zero when the fine-grained configurations commit
// fewer small transactions than the global ones in aggregate — the
// hybrid-path regression gate CI's bench-smoke lane relies on.
func fallbackExperiment() {
	fmt.Printf("\nFallback disciplines — 1 capacity-bound writer + N small transactions (%v per point)\n", *duration)
	fmt.Printf("%-22s %8s %12s %14s %14s %12s\n",
		"config", "small", "Mops/s", "p50", "p99", "fb sessions")
	totals := map[string]int64{}
	for _, global := range []bool{true, false} {
		mode := "fine"
		if global {
			mode = "global"
		}
		for _, g := range threadList() {
			r := runFallbackPoint(g, global)
			totals[mode] += r.ops
			mops := float64(r.ops) / r.elapsed.Seconds() / 1e6
			fmt.Printf("%-22s %8d %12.3f %11.1f µs %11.1f µs %12d\n",
				"fallback-mixed/"+mode, g, mops,
				float64(r.lat.P50)/1e3, float64(r.lat.P99)/1e3,
				r.tm.Fallback["acquires"])
			harness.AppendRow(obs.BenchRow{
				Structure: "fallback-mixed/" + mode,
				Threads:   g,
				Dist:      "uniform",
				ReadPct:   0,
				Ops:       r.ops,
				ElapsedNS: r.elapsed.Nanoseconds(),
				Mops:      mops,
				Latency:   r.lat,
				HTM:       r.tm,
			})
		}
	}
	if totals["fine"] < totals["global"] {
		fmt.Fprintf(os.Stderr, "bdbench: fallback: hybrid regression — fine-grained configs committed %d small transactions < global %d\n",
			totals["fine"], totals["global"])
		os.Exit(1)
	}
	fmt.Printf("  fine-grained total %d small commits vs global %d (%.2fx)\n",
		totals["fine"], totals["global"], float64(totals["fine"])/float64(max(totals["global"], 1)))
}

type fallbackPoint struct {
	ops     int64
	elapsed time.Duration
	lat     *obs.LatencySummary
	tm      *obs.HTMSummary
}

// runFallbackPoint runs one matrix point: the background fallback
// writer plus g small-transaction goroutines for the configured
// duration, returning the small-transaction side's counters.
func runFallbackPoint(g int, global bool) fallbackPoint {
	// Pin the write-set budget to the htm.Config default so the writer's
	// bigLines write set overflows it by exactly one line.
	const maxWriteLines = 512
	tm := htm.New(htm.Config{MaxWriteLines: maxWriteLines, GlobalFallback: global})
	if benchObs != nil {
		tm.SetObs(benchObs)
	}
	bigLines := maxWriteLines + 1
	big := make([]uint64, bigLines*8)
	stop := make(chan struct{})
	var bigWG sync.WaitGroup
	bigWG.Add(1)
	go func() {
		defer bigWG.Done()
		var i uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			tm.Atomic(nil, func(tx *htm.Tx) {
				for l := 0; l < bigLines; l++ {
					tx.Store(&big[l*8], i)
				}
			})
		}
	}()
	base := tm.Stats()
	regions := make([][]uint64, g)
	lats := make([][]time.Duration, g)
	for w := range regions {
		regions[w] = make([]uint64, 2*8)
	}
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := regions[w]
			var samples []time.Duration
			var i uint64
			for time.Now().Before(deadline) {
				opStart := time.Now()
				tm.Atomic(nil, func(tx *htm.Tx) {
					tx.Store(&region[0], tx.Load(&region[0])+1)
					tx.Store(&region[8], i)
				})
				samples = append(samples, time.Since(opStart))
				i++
			}
			lats[w] = samples
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	bigWG.Wait()
	d := tm.Stats().Sub(base)

	var all []time.Duration
	for _, s := range lats {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	lat := &obs.LatencySummary{Count: int64(len(all))}
	if n := len(all); n > 0 {
		var sum time.Duration
		for _, v := range all {
			sum += v
		}
		lat.MeanNS = float64(sum.Nanoseconds()) / float64(n)
		lat.P50 = all[n*50/100].Nanoseconds()
		lat.P90 = all[n*90/100].Nanoseconds()
		lat.P99 = all[n*99/100].Nanoseconds()
		lat.P999 = all[n*999/1000].Nanoseconds()
		lat.Max = all[n-1].Nanoseconds()
	}
	return fallbackPoint{
		ops:     int64(len(all)),
		elapsed: elapsed,
		lat:     lat,
		tm: &obs.HTMSummary{
			Attempts:   d.Attempts(),
			Commits:    d.Commits,
			CommitRate: d.CommitRate(),
			Aborts: map[string]int64{
				"conflict": d.Conflict, "capacity": d.Capacity,
				"explicit": d.Explicit, "locked": d.Locked,
				"spurious": d.Spurious, "memtype": d.MemType,
				"persist-op": d.PersistOp,
			},
			Fallback: map[string]int64{
				"acquires": d.FallbackAcquires, "lines": d.FallbackLines,
				"blocked": d.FallbackBlocked, "restarts": d.FallbackRestarts,
			},
		},
	}
}
