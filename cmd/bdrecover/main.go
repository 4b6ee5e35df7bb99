// Command bdrecover demonstrates and times crash recovery for the
// buffered-durable structures (Sec. 5.2 of the paper).
//
//	bdrecover [-structure bdhash|veb|skiplist|spash] [-records N] [-evict F]
//	          [-engine bdl|undo|redo4f|redo2f|quadra] [-workers N]
//
// It fills the structure, makes the data durable, power-fails the heap
// with a random fraction of dirty lines written back, recovers (with the
// header scan partitioned across -workers goroutines and a live progress
// report), verifies every record, and prints scan/rebuild timings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"bdhtm/internal/durability"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

var (
	structure  = flag.String("structure", "bdhash", strings.Join(kv.Names(kv.IsBuffered), " | "))
	records    = flag.Int("records", 100000, "number of KV records")
	evict      = flag.Float64("evict", 0.5, "fraction of dirty lines written back before the crash")
	tail       = flag.Int("tail", 1000, "unsynced operations issued after the checkpoint")
	engineFlag = flag.String("engine", "", "durability engine (default bdl; see internal/durability)")
	workers    = flag.Int("workers", 1, "recovery scan worker goroutines")
	obsHTTP    = flag.String("obs-http", "", "serve /obs, /metrics and /debug/pprof on this address during the run")
)

// runConfig parameterizes one fill/crash/recover/verify cycle; main maps
// the flags onto it and tests drive it directly.
type runConfig struct {
	structure string
	records   int
	evict     float64
	tail      int
	engine    string // "" = default (bdl); must match on both sides of the crash
	workers   int
	progress  bool          // live scan progress on out (main only; tests keep it off)
	obs       *obs.Recorder // nil disables telemetry
	out       io.Writer
}

func main() {
	flag.Parse()
	if *engineFlag != "" {
		if _, err := durability.New(*engineFlag, nil, 1, nil); err != nil {
			fmt.Fprintf(os.Stderr, "bdrecover: %v\n", err)
			os.Exit(2)
		}
	}
	var rec *obs.Recorder
	if *obsHTTP != "" {
		rec = obs.New("bdrecover")
		hs, err := obs.StartHTTP(*obsHTTP, rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdrecover: obs-http: %v\n", err)
			os.Exit(1)
		}
		defer hs.Close()
		fmt.Printf("bdrecover: observability on http://%s (/obs /metrics /debug/pprof)\n", hs.Addr())
	}
	err := run(runConfig{
		structure: *structure,
		records:   *records,
		evict:     *evict,
		tail:      *tail,
		engine:    *engineFlag,
		workers:   *workers,
		progress:  true,
		obs:       rec,
		out:       os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bdrecover: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	d, err := kv.Lookup(cfg.structure)
	if err != nil || !kv.IsBuffered(d) {
		return fmt.Errorf("unknown structure %q", cfg.structure)
	}
	// The heap must be formatted and recovered by the same engine: the
	// engine writes an identity word at format time and recovery panics
	// on a mismatch, so -engine is threaded into both.
	env := kv.Env{
		KeySpace:  uint64(cfg.records) * 2,
		HeapWords: max(cfg.records*24, 1<<21),
		Manual:    true,
		Engine:    cfg.engine,
		Obs:       cfg.obs,
	}
	st := d.Open(env)
	fmt.Fprintf(cfg.out, "filling %s with %d records...\n", cfg.structure, cfg.records)
	h := st.NewHandle()
	for k := 0; k < cfg.records; k++ {
		h.Insert(uint64(k), uint64(k)*3+1)
	}
	st.Sys.Sync()
	fmt.Fprintf(cfg.out, "checkpoint: persisted epoch %d\n", st.Sys.PersistedEpoch())

	for k := 0; k < cfg.tail; k++ {
		h.Insert(uint64(k), 7) // updates the crash will roll back
	}

	st.Crash(nvm.CrashOptions{EvictFraction: cfg.evict})
	fmt.Fprintf(cfg.out, "-- crash (evict fraction %.2f) --\n", cfg.evict)

	env.RecoveryWorkers = cfg.workers
	scanStart := time.Now()
	if cfg.progress {
		// Live progress, printed at most every 100ms. The tick arrives
		// concurrently from scan workers; the CAS elects one printer.
		var lastPrint atomic.Int64
		env.RecoveryTick = func(slabs, recovered, resurrected int64) {
			now := time.Now().UnixNano()
			last := lastPrint.Load()
			if now-last < 100*int64(time.Millisecond) || !lastPrint.CompareAndSwap(last, now) {
				return
			}
			elapsed := time.Duration(now - scanStart.UnixNano()).Seconds()
			fmt.Fprintf(cfg.out, "\r  scan: %d slabs, %d blocks recovered, %d resurrected (%.0f resurrections/s)",
				slabs, recovered, resurrected, float64(resurrected)/elapsed)
		}
	}
	rec, err := d.Recover(env, st.Heap)
	if err != nil {
		return err
	}
	defer rec.Close()
	if cfg.progress {
		fmt.Fprintln(cfg.out)
	}

	stats := rec.Sys.Stats()
	fmt.Fprintf(cfg.out, "heap scan:      %v (%d blocks, %d resurrected, %d workers)\n",
		time.Duration(stats.RecoveryScanNS), len(rec.Records), stats.Resurrected, cfg.workers)
	fmt.Fprintf(cfg.out, "index rebuild:  %v\n", time.Duration(rec.RebuildNS))

	bad := 0
	h = rec.NewHandle()
	for k := 0; k < cfg.records; k++ {
		if v, ok := h.Get(uint64(k)); !ok || v != uint64(k)*3+1 {
			bad++
		}
	}
	if bad != 0 || rec.Len() != cfg.records {
		return fmt.Errorf("verification failed: %d bad records, Len=%d want %d", bad, rec.Len(), cfg.records)
	}
	fmt.Fprintf(cfg.out, "verified: all %d checkpointed records intact; %d unsynced updates rolled back\n",
		cfg.records, cfg.tail)
	return nil
}
