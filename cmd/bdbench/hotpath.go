package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bdhtm/internal/harness"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// hotpath measures the substrate's own fast paths — the cost every
// simulated structure pays per memory access or transaction — so the
// BENCH trajectory captures bookkeeping throughput, not just structure
// throughput. The latency model is deliberately off: the point is what
// the simulation machinery costs, and hits charge no modeled latency
// anyway. Rows land in the bdhtm-bench/v1 report like any experiment.
func hotpath() {
	fmt.Printf("\nHot path — substrate throughput (latency model off, %v per point)\n", *duration)
	fmt.Printf("%-18s %8s %14s\n", "path", "threads", "throughput")
	for _, n := range threadList() {
		hotpathHeap("heap-load", n, false)
		hotpathHeap("heap-store", n, true)
	}
	for _, n := range threadList() {
		hotpathTx("tx-readonly", n, 16, 0)
		hotpathTx("tx-readwrite", n, 8, 8)
	}
	for _, ws := range []int{1, 16, 256} {
		for _, n := range threadList() {
			hotpathTx(fmt.Sprintf("commit-ws%d", ws), n, 0, ws)
		}
	}
}

// hotpathRow reports one measured point on stdout and into the report.
func hotpathRow(name string, threads int, readPct int, ops int64, elapsed time.Duration,
	htmSum *obs.HTMSummary, nvmSum *obs.NVMSummary) {
	mops := float64(ops) / elapsed.Seconds() / 1e6
	fmt.Printf("%-18s %8d %11.3f Mops\n", name, threads, mops)
	harness.AppendRow(obs.BenchRow{
		Structure: name,
		Threads:   threads,
		Dist:      "uniform",
		ReadPct:   readPct,
		Ops:       ops,
		ElapsedNS: elapsed.Nanoseconds(),
		Mops:      mops,
		HTM:       htmSum,
		NVM:       nvmSum,
	})
}

// hotpathHeap drives Heap.Load or Heap.Store from n goroutines over a
// pre-warmed heap, so the measured loop runs on the residency hit path.
func hotpathHeap(name string, threads int, store bool) {
	const words = 1 << 16
	h := nvm.New(nvm.Config{Words: words})
	for a := nvm.Addr(0); a < words; a += nvm.LineWords {
		h.Store(a, 1)
	}
	base := h.Stats()
	var total atomic.Int64
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			var n int64
			for time.Now().Before(deadline) {
				for i := 0; i < 4096; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					a := nvm.Addr(x % words)
					if store {
						h.Store(a, x)
					} else {
						h.Load(a)
					}
				}
				n += 4096
			}
			total.Add(n)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	d := h.Stats().Sub(base)
	readPct := 100
	if store {
		readPct = 0
	}
	hotpathRow(name, threads, readPct, total.Load(), elapsed, nil, &obs.NVMSummary{
		Flushes:            d.Flushes,
		Fences:             d.Fences,
		LineWritebacks:     d.LineWritebacks,
		MediaWrites:        d.MediaWrites,
		MediaBytes:         d.MediaBytes,
		UsefulBytes:        d.UsefulBytes,
		WriteAmplification: d.WriteAmplification(),
	})
}

// hotpathTx drives transactions of nReads read lines and nWrites write
// lines from n goroutines, each on private lines, so the measurement
// isolates bookkeeping and commit cost rather than data conflicts.
func hotpathTx(name string, threads, nReads, nWrites int) {
	tm := htm.New(htm.Config{})
	lines := nReads + nWrites
	regions := make([][]uint64, threads)
	for w := range regions {
		regions[w] = make([]uint64, lines*8)
	}
	base := tm.Stats()
	var total atomic.Int64
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := regions[w]
			var n, sink uint64
			for time.Now().Before(deadline) {
				for i := 0; i < 256; i++ {
					tm.Atomic(nil, func(tx *htm.Tx) {
						for r := 0; r < nReads; r++ {
							sink += tx.Load(&region[r*8])
						}
						for wr := 0; wr < nWrites; wr++ {
							tx.Store(&region[(nReads+wr)*8], n)
						}
					})
					n++
				}
			}
			_ = sink
			total.Add(int64(n))
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	d := tm.Stats().Sub(base)
	readPct := 0
	if lines > 0 {
		readPct = nReads * 100 / lines
	}
	hotpathRow(name, threads, readPct, total.Load(), elapsed, &obs.HTMSummary{
		Attempts:   d.Attempts(),
		Commits:    d.Commits,
		CommitRate: d.CommitRate(),
		Aborts: map[string]int64{
			"conflict": d.Conflict, "capacity": d.Capacity,
			"explicit": d.Explicit, "locked": d.Locked,
			"spurious": d.Spurious, "memtype": d.MemType,
			"persist-op": d.PersistOp,
		},
	}, nil)
}
