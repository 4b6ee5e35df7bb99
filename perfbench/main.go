// Command perfbench is the repository benchmark: one named workload per
// run, timed end to end through the public APIs of the BDL stack, with
// its outputs checked and every metric printed by name.
//
//	perfbench --workload kv-serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// carrying the end-to-end metrics; with --trace 1 the workload runs
// twice, untraced and then traced, and the JSON carries the per-layer
// metrics plus the tracing overhead. Lines before it are the same
// metrics in human-readable form, each with its sample count.
// README.md in this directory lists the workloads, the metrics and the
// layer each per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one named result. n is the number of raw samples behind a
// percentile or mean (0 for a count ratio taken from counters).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is everything one workload run reports.
type result struct {
	attempted int64
	failed    int64
	problems  []string // correctness failures; empty means correct
	e2e       []metric // untraced end-to-end metrics
	layers    []metric // per-layer metrics (traced run only)
	tput      float64  // throughput_ops_s, kept apart for the overhead ratio
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(opts runOpts) *result{
	"kv-serve":      runKVServe,
	"veb-write":     runVEBWrite,
	"skiplist-read": runSkiplistRead,
}

// runOpts are the per-run settings every workload function receives.
type runOpts struct {
	seed    uint64
	seconds int
	traced  bool
	traces  *tracer // nil unless traced
}

func main() {
	name := flag.String("workload", "", "workload to run: kv-serve, veb-write or skiplist-read")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}

	opts := runOpts{seed: *seed, seconds: *seconds}
	res := run(opts)
	if *trace == 1 {
		opts.traced = true
		opts.traces = &tracer{}
		tr := run(opts)
		path, err := opts.traces.write(*name, *seed)
		if err != nil {
			tr.fail("writing trace: %v", err)
		} else {
			fmt.Printf("trace: %d spans written to %s\n", opts.traces.len(), path)
		}
		tr.layers = append(tr.layers,
			metric{"trace.throughput_ops_s", tr.tput, "1/s", 0},
			metric{"trace.overhead_frac", 1 - tr.tput/res.tput, "frac", 0})
		// The traced run's own correctness counts as much as the untraced one's.
		tr.problems = append(res.problems, tr.problems...)
		tr.attempted += res.attempted
		tr.failed += res.failed
		res = tr
	}
	if res.attempted < 1 {
		res.fail("no operation was attempted")
	}
	os.Exit(report(*name, res, *trace == 1))
}

// report prints the human-readable table and the final JSON line, and
// returns the exit code: 1 when a correctness check failed.
func report(name string, res *result, traced bool) int {
	ms := res.e2e
	if traced {
		ms = res.layers
	}
	fmt.Printf("workload %s\n", name)
	for _, m := range ms {
		fmt.Printf("  %-34s %16.6f %-6s samples=%d\n", m.name, m.value, m.unit, m.n)
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("  %-34s %16.6f %-6s samples=%d\n", "failed_frac", frac, "frac", res.attempted)
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	if res.attempted != 0 && res.failed != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed\n", name, res.failed, res.attempted)
	}

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// base is the benchmark's clock origin; now is nanoseconds since it, on
// the monotonic clock. Every timestamp in a run, client and server side,
// comes from now, so spans from different layers line up.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// splitmix derives independent generator seeds from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// value is the ycsb generator's key-derived value: every GET hit must
// return it.
func value(k uint64) uint64 { return k*2654435761 + 12345 }
