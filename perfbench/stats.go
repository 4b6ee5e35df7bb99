package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// series stores raw int64 samples in fixed-size chunks, so recording
// one never copies the ones before it and costs one allocation per
// chunk rather than a doubling reallocation.
type series struct{ chunks [][]int64 }

const chunkLen = 1 << 16

func (s *series) add(v int64) {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == chunkLen {
		s.chunks = append(s.chunks, make([]int64, 0, chunkLen))
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], v)
}

func (s *series) len() int {
	if len(s.chunks) == 0 {
		return 0
	}
	return (len(s.chunks)-1)*chunkLen + len(s.chunks[len(s.chunks)-1])
}

// at returns sample i.
func (s *series) at(i int) int64 { return s.chunks[i/chunkLen][i%chunkLen] }

// flat copies every sample of every series into one slice.
func flat(ss ...*series) []int64 {
	n := 0
	for _, s := range ss {
		n += s.len()
	}
	out := make([]int64, 0, n)
	for _, s := range ss {
		for _, c := range s.chunks {
			out = append(out, c...)
		}
	}
	return out
}

// dist is a sorted set of raw nanosecond samples.
type dist []int64

func newDist(ss ...*series) dist {
	d := flat(ss...)
	slices.Sort(d)
	return d
}

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q of the samples at or below it. 0 for an empty set.
func (d dist) quantile(q float64) int64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(i, 0)]
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// timed is a latency series whose samples also record when the op started.
type timed struct{ at, lat series }

func (t *timed) add(at, lat int64) {
	t.at.add(at)
	t.lat.add(lat)
}

// window is the slice of the timed phase each p99 is taken over.
const window = int64(100 * time.Millisecond)

// latencyMetrics reports the median and the p99 in µs of the ops that
// started at or after start. The median is over all samples. The p99 is
// the median of the p99s of each 100 ms window: a stall of tens of
// milliseconds, which a shared host causes at random, moves the p99 of
// its own window only.
func latencyMetrics(prefix string, start int64, ts ...*timed) []metric {
	var all series
	var wins []series
	for _, t := range ts {
		for i := range t.lat.len() {
			w := int((t.at.at(i) - start) / window)
			if w < 0 {
				continue
			}
			for len(wins) <= w {
				wins = append(wins, series{})
			}
			all.add(t.lat.at(i))
			wins[w].add(t.lat.at(i))
		}
	}
	var p99s []float64
	for i := range wins {
		if d := newDist(&wins[i]); len(d) > 0 {
			p99s = append(p99s, us(d.quantile(0.99)))
		}
	}
	d := newDist(&all)
	p99 := 0.0
	if len(p99s) > 0 {
		p99 = median(p99s)
	}
	return []metric{
		{prefix + "_p50_us", us(d.quantile(0.50)), "us", len(d)},
		{prefix + "_p99_us", p99, "us", len(d)},
	}
}

// goCounters are the Go runtime figures the benchmark reports deltas of.
type goCounters struct {
	allocs uint64  // heap objects allocated
	gcCPU  float64 // CPU seconds spent in the GC
	wallNS int64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGo() goCounters {
	metrics.Read(goSamples)
	return goCounters{
		allocs: goSamples[0].Value.Uint64(),
		gcCPU:  goSamples[1].Value.Float64(),
		wallNS: now(),
	}
}

// goMetrics reports allocations per op and the share of available CPU
// (GOMAXPROCS × wall time) the GC used between a and b.
func goMetrics(a, b goCounters, ops int64) []metric {
	avail := float64(runtime.GOMAXPROCS(0)) * float64(b.wallNS-a.wallNS) / 1e9
	return []metric{
		{"go.allocs_per_op", float64(b.allocs-a.allocs) / float64(max(ops, 1)), "count", 0},
		{"go.gc_cpu_frac", (b.gcCPU - a.gcCPU) / avail, "frac", 0},
	}
}

// liveHeap forces a GC and returns the live Go heap it marked. mem_mb
// is the larger of its readings after set-up and after the timed phase;
// a forced GC marks no transient garbage, unlike a poll of the heap in
// use, whose peak depends on where the GC cycles happen to fall.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func memMetric(a, b uint64) metric {
	return metric{"mem_mb", float64(max(a, b)) / (1 << 20), "MB", 2}
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
