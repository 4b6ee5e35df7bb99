package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/nvm"
)

// Spans of the traced run. The benchmark records them around its own
// calls into each layer; the program itself is not instrumented further.
// Spans of one operation share ID; Parent names the enclosing span.
// Counters holds counter deltas taken at the span's own boundaries.

// spanEvery samples one operation in spanEvery for op-level spans.
// Advances and recovery are always traced.
const spanEvery = 64

type span struct {
	Name     string           `json:"name"`
	ID       uint64           `json:"id"`
	Parent   string           `json:"parent,omitempty"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer collects spans in memory. Goroutines buffer their own spans and
// hand them over once, when they finish.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add merges a goroutine's spans. A nil tracer (untraced run) drops them.
func (t *tracer) add(s ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines under .bench_build/traces in the
// working directory and returns the file's path.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slices.SortStableFunc(t.spans, func(a, b span) int { return int(a.Start - b.Start) })
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// advancer calls AdvanceOnce on a fixed ticker, the call the epoch
// system's own background advancer makes, so that the traced run can
// time each advance from outside. The system must be Manual.
type advancer struct {
	stop, done chan struct{}
	spans      []span
}

func startAdvancer(sys *epoch.System, heap *nvm.Heap, every time.Duration) *advancer {
	a := &advancer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for seq := uint64(1); ; seq++ {
			select {
			case <-a.stop:
				return
			case <-t.C:
			}
			h0, e0 := heap.Stats(), sys.Stats()
			t0 := now()
			sys.AdvanceOnce()
			t1 := now()
			h, e := heap.Stats().Sub(h0), sys.Stats()
			a.spans = append(a.spans, span{Name: "epoch.AdvanceOnce", ID: seq, Start: t0, End: t1,
				Counters: map[string]int64{
					"nvm.flushes":          h.Flushes,
					"nvm.fences":           h.Fences,
					"epoch.flushed_blocks": e.FlushedBlocks - e0.FlushedBlocks,
					"epoch.freed_blocks":   e.FreedBlocks - e0.FreedBlocks,
				}})
		}
	}()
	return a
}

// finish stops the ticker, waits for the goroutine and hands its spans to
// tr. It is a no-op on a nil advancer (untraced run).
func (a *advancer) finish(tr *tracer) {
	if a == nil {
		return
	}
	close(a.stop)
	<-a.done
	tr.add(a.spans...)
}

// metrics reports the latency of the advances that started in [from, to].
func (a *advancer) metrics(from, to int64) []metric {
	var durs series
	for _, s := range a.spans {
		if s.Start >= from && s.Start <= to {
			durs.add(s.End - s.Start)
		}
	}
	d := newDist(&durs)
	return []metric{
		{"epoch.advance_p50_us", us(d.quantile(0.50)), "us", len(d)},
		{"epoch.advance_p99_us", us(d.quantile(0.99)), "us", len(d)},
	}
}
