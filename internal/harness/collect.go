package harness

import (
	"sync"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// Collector accumulates machine-readable benchmark rows (obs.BenchRow)
// while experiments run. When a collector is installed (SetCollector),
// Run and RunLatency append one row per measurement, tagged with the
// current experiment label, and bdbench writes the finished report as
// BENCH_*.json.
type Collector struct {
	Report *obs.Report

	mu         sync.Mutex
	experiment string
}

// NewCollector creates a collector around an empty report.
func NewCollector(cfg obs.RunConfig) *Collector {
	return &Collector{Report: obs.NewReport(cfg)}
}

// SetExperiment labels subsequent rows (e.g. "fig1", "tail").
func (c *Collector) SetExperiment(name string) {
	c.mu.Lock()
	c.experiment = name
	c.mu.Unlock()
}

func (c *Collector) experimentName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.experiment
}

var (
	collectorMu     sync.Mutex
	activeCollector *Collector
)

// SetCollector installs (or, with nil, removes) the process-wide
// collector consulted by Run and RunLatency.
func SetCollector(c *Collector) {
	collectorMu.Lock()
	activeCollector = c
	collectorMu.Unlock()
}

// SetExperiment labels subsequent rows on the installed collector, if
// any. The run() helper in cmd/bdbench calls it per experiment.
func SetExperiment(name string) {
	if c := currentCollector(); c != nil {
		c.SetExperiment(name)
	}
}

func currentCollector() *Collector {
	collectorMu.Lock()
	defer collectorMu.Unlock()
	return activeCollector
}

// AppendRow appends a prebuilt row to the installed collector, tagging
// it with the current experiment label when the row carries none. It is
// a no-op without a collector. Experiments that measure outside the
// Run/RunLatency pipeline (bdbench's hotpath substrate matrix) use it
// to land rows in the same report.
func AppendRow(row obs.BenchRow) {
	c := currentCollector()
	if c == nil {
		return
	}
	if row.Experiment == "" {
		row.Experiment = c.experimentName()
	}
	c.Report.Append(row)
}

// statsBaseline captures an instance's absolute counters so a row can
// report the measured interval only (prefill traffic excluded).
type statsBaseline struct {
	tm    htm.StatsSnapshot
	nvm   nvm.StatsSnapshot
	epoch epoch.Stats
}

func captureBaseline(inst *Instance) statsBaseline {
	var b statsBaseline
	if inst.TM != nil {
		b.tm = inst.TM.Stats()
	}
	if inst.Heap != nil {
		b.nvm = inst.Heap.Stats()
	}
	if inst.Sys != nil {
		b.epoch = inst.Sys.Stats()
	}
	return b
}

// buildRow assembles one BenchRow from a finished measurement.
func buildRow(c *Collector, inst *Instance, wl Workload, res Result, base statsBaseline, lat *obs.LatencySummary) obs.BenchRow {
	row := obs.BenchRow{
		Experiment: c.experimentName(),
		Structure:  inst.Name,
		Threads:    res.Threads,
		Dist:       wl.Dist.String(),
		ReadPct:    wl.Mix.ReadPct,
		Ops:        res.Ops,
		ElapsedNS:  res.Elapsed.Nanoseconds(),
		Mops:       res.Throughput,
		Latency:    lat,
	}
	if inst.TM != nil {
		d := inst.TM.Stats().Sub(base.tm)
		sum := &obs.HTMSummary{
			Attempts: d.Attempts(),
			Commits:  d.Commits,
			Aborts: map[string]int64{
				"conflict": d.Conflict, "capacity": d.Capacity,
				"explicit": d.Explicit, "locked": d.Locked,
				"spurious": d.Spurious, "memtype": d.MemType,
				"persist-op": d.PersistOp,
			},
		}
		if sum.Attempts > 0 {
			sum.CommitRate = float64(sum.Commits) / float64(sum.Attempts)
		} else {
			sum.CommitRate = 1 // idle TM: nothing failed
		}
		row.HTM = sum
	}
	if inst.Heap != nil {
		d := inst.Heap.Stats().Sub(base.nvm)
		row.NVM = &obs.NVMSummary{
			Flushes:            d.Flushes,
			Fences:             d.Fences,
			LineWritebacks:     d.LineWritebacks,
			MediaWrites:        d.MediaWrites,
			MediaBytes:         d.MediaBytes,
			UsefulBytes:        d.UsefulBytes,
			WriteAmplification: d.WriteAmplification(),
		}
		if res.Ops > 0 {
			row.NVM.FencesPerOp = float64(d.Fences) / float64(res.Ops)
		}
	}
	if inst.Sys != nil {
		e := inst.Sys.Stats()
		sum := &obs.EpochSummary{
			Advances:      e.Advances - base.epoch.Advances,
			FlushedBlocks: e.FlushedBlocks - base.epoch.FlushedBlocks,
			RetiredBlocks: e.RetiredBlocks - base.epoch.RetiredBlocks,
			FreedBlocks:   e.FreedBlocks - base.epoch.FreedBlocks,
			Shards:        e.Shards,
			AdvanceP99NS:  e.AdvanceP99NS,
			Backpressure:  e.Backpressure - base.epoch.Backpressure,
			Engine:        e.Engine,
			EngineCommits: e.EngineCommits - base.epoch.EngineCommits,
			EngineFences:  e.EngineFences - base.epoch.EngineFences,
			EngineFlushes: e.EngineFlushes - base.epoch.EngineFlushes,
			LogSpills:     e.LogSpills - base.epoch.LogSpills,
		}
		if len(e.PerShard) == len(base.epoch.PerShard) || len(base.epoch.PerShard) == 0 {
			for i, ps := range e.PerShard {
				var prev epoch.ShardCounters
				if i < len(base.epoch.PerShard) {
					prev = base.epoch.PerShard[i]
				}
				sum.PerShard = append(sum.PerShard, obs.EpochShardSummary{
					FlushedBlocks: ps.FlushedBlocks - prev.FlushedBlocks,
					RetiredBlocks: ps.RetiredBlocks - prev.RetiredBlocks,
					FreedBlocks:   ps.FreedBlocks - prev.FreedBlocks,
				})
			}
		}
		row.Epoch = sum
	}
	return row
}
