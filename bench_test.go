// Package bdhtm's benchmarks regenerate every table and figure of the
// paper's evaluation (Sec. 4-5) in testing.B form, at reduced scale so
// `go test -bench=.` completes quickly. cmd/bdbench runs the same
// experiments with figure-shaped output and paper-scale flags.
//
// Mapping (see DESIGN.md for the full per-experiment index):
//
//	BenchmarkFig1*     vEB trees, transient vs buffered durable
//	BenchmarkFig2      HTM commit/abort breakdown (reported via b.Log)
//	BenchmarkFig3*     persistent trees vs baselines
//	BenchmarkTable3    space consumption (reported via b.Log)
//	BenchmarkFig4*     MwCAS microbenchmark
//	BenchmarkFig5*     skiplist variants
//	BenchmarkFig6*     persistent hash tables
//	BenchmarkFig7*     epoch-length sensitivity (throughput)
//	BenchmarkFig8      epoch-length sensitivity (NVM space, via b.Log)
//	BenchmarkRecovery* Sec. 5.2 recovery scan+rebuild
package bdhtm

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"bdhtm/internal/harness"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/mwcas"
	"bdhtm/internal/nvm"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/ycsb"
)

const benchKeySpace = 1 << 14

func benchOpts() kv.Env {
	return kv.Env{KeySpace: benchKeySpace, Latency: true}
}

// benchMap drives b.N operations of the workload against one instance.
func benchMap(b *testing.B, build func() *harness.Instance, dist harness.Dist, mix ycsb.Mix) {
	b.Helper()
	inst := build()
	defer inst.Close()
	harness.Prefill(inst, benchKeySpace)
	h := inst.NewHandle()
	g := distGen(dist, mix, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, k, v := g.Next()
		switch op {
		case ycsb.OpRead:
			h.Get(k)
		case ycsb.OpInsert:
			h.Insert(k, v)
		case ycsb.OpRemove:
			h.Remove(k)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

func distGen(d harness.Dist, mix ycsb.Mix, seed uint64) *ycsb.Generator {
	if d.Zipfian {
		return ycsb.NewZipfian(benchKeySpace, d.Theta, mix, seed)
	}
	return ycsb.NewUniform(benchKeySpace, mix, seed)
}

// --- Fig. 1 -------------------------------------------------------------------

func BenchmarkFig1_HTMvEB_Uniform(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.HTMvEB, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig1_PHTMvEB_Uniform(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.VEB, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig1_HTMvEB_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.HTMvEB, benchOpts()) }, harness.Zipf99, ycsb.WriteHeavy)
}

func BenchmarkFig1_PHTMvEB_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.VEB, benchOpts()) }, harness.Zipf99, ycsb.WriteHeavy)
}

// --- Fig. 2 -------------------------------------------------------------------

func BenchmarkFig2_AbortRates(b *testing.B) {
	o := benchOpts()
	o.MemTypeRate = 0.3 // the low-thread-count anomaly, mitigated by pre-walks
	inst := harness.Open(kv.VEB, o)
	defer inst.Close()
	harness.Prefill(inst, benchKeySpace)
	h := inst.NewHandle()
	g := distGen(harness.Uniform, ycsb.WriteHeavy, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, k, v := g.Next()
		switch op {
		case ycsb.OpRead:
			h.Get(k)
		case ycsb.OpInsert:
			h.Insert(k, v)
		case ycsb.OpRemove:
			h.Remove(k)
		}
	}
	b.StopTimer()
	s := inst.TM.Stats()
	at := float64(s.Attempts())
	b.ReportMetric(100*float64(s.Commits)/at, "%commit")
	b.ReportMetric(100*float64(s.Conflict)/at, "%conflict")
	b.ReportMetric(100*float64(s.MemType)/at, "%memtype")
}

// --- Fig. 3 -------------------------------------------------------------------

func BenchmarkFig3_PHTMvEB(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.VEB, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig3_LBTree(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.LBTree, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig3_ElimTree(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.ElimTree, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig3_OCCTree(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.OCCTree, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig3_PHTMvEB_ReadHeavy_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.VEB, benchOpts()) }, harness.Zipf99, ycsb.ReadHeavy)
}

func BenchmarkFig3_LBTree_ReadHeavy_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.LBTree, benchOpts()) }, harness.Zipf99, ycsb.ReadHeavy)
}

func BenchmarkFig3_ElimTree_ReadHeavy_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.ElimTree, benchOpts()) }, harness.Zipf99, ycsb.ReadHeavy)
}

func BenchmarkFig3_OCCTree_ReadHeavy_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.OCCTree, benchOpts()) }, harness.Zipf99, ycsb.ReadHeavy)
}

// --- Table 3 ------------------------------------------------------------------

func BenchmarkTable3_Space(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, d := range []*kv.Desc{kv.HTMvEB, kv.VEB, kv.LBTree, kv.ElimTree, kv.OCCTree} {
			inst := harness.Open(d, benchOpts())
			harness.Prefill(inst, benchKeySpace)
			if inst.Sys != nil {
				inst.Sys.Sync()
			}
			dram, nv := inst.DRAMBytes(), inst.NVMBytes()
			report += fmt.Sprintf("%s: DRAM %.2f MiB, NVM %.2f MiB; ",
				inst.Name, float64(dram)/(1<<20), float64(nv)/(1<<20))
			inst.Close()
		}
		if i == 0 {
			b.Log(report)
		}
	}
}

// --- Fig. 4 -------------------------------------------------------------------

func benchMwCAS(b *testing.B, width int, apply func(h *nvm.Heap) func([]mwcas.Entry)) {
	b.Helper()
	const slots = 1 << 14
	h := nvm.New(nvm.Config{Words: slots*nvm.LineWords + (1 << 16), Latency: nvm.OptaneProfile})
	fn := apply(h)
	rng := rand.New(rand.NewPCG(3, 3))
	entries := make([]mwcas.Entry, width)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		used := uint64(0)
		for j := range entries {
			var s uint64
			for {
				s = rng.Uint64N(slots)
				if used&(1<<(s%64)) == 0 || width > 32 {
					used |= 1 << (s % 64)
					break
				}
			}
			a := nvm.Addr(nvm.RootWords + s*nvm.LineWords)
			old := h.Load(a)
			entries[j] = mwcas.Entry{Addr: a, Old: old, New: old + 1}
		}
		fn(entries)
	}
}

func BenchmarkFig4_MwWR_4(b *testing.B) {
	benchMwCAS(b, 4, func(h *nvm.Heap) func([]mwcas.Entry) {
		return func(es []mwcas.Entry) { mwcas.MwWR(h, es) }
	})
}

func BenchmarkFig4_HTMMwCAS_4(b *testing.B) {
	benchMwCAS(b, 4, func(h *nvm.Heap) func([]mwcas.Entry) {
		m := mwcas.NewHTMMwCAS(h, htm.Default())
		return func(es []mwcas.Entry) { m.Apply(es) }
	})
}

func BenchmarkFig4_MwCAS_4(b *testing.B) {
	benchMwCAS(b, 4, func(h *nvm.Heap) func([]mwcas.Entry) {
		next := nvm.Addr(h.Words() - (1 << 12))
		m := mwcas.NewDesc(h, false, 1, func(w int) nvm.Addr { a := next; next += nvm.Addr(w); return a })
		return func(es []mwcas.Entry) { m.Apply(0, es) }
	})
}

func BenchmarkFig4_PMwCAS_4(b *testing.B) {
	benchMwCAS(b, 4, func(h *nvm.Heap) func([]mwcas.Entry) {
		next := nvm.Addr(h.Words() - (1 << 12))
		m := mwcas.NewDesc(h, true, 1, func(w int) nvm.Addr { a := next; next += nvm.Addr(w); return a })
		return func(es []mwcas.Entry) { m.Apply(0, es) }
	})
}

// --- Fig. 5 -------------------------------------------------------------------

func benchSkiplist(b *testing.B, v skiplist.Variant) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.SkiplistVariant(v), benchOpts()) },
		harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig5_DLSkiplist(b *testing.B)        { benchSkiplist(b, skiplist.DL) }
func BenchmarkFig5_PNoFlush(b *testing.B)          { benchSkiplist(b, skiplist.PNoFlush) }
func BenchmarkFig5_PHTMMwCAS(b *testing.B)         { benchSkiplist(b, skiplist.PHTMMwCAS) }
func BenchmarkFig5_BDLSkiplist(b *testing.B)       { benchSkiplist(b, skiplist.BDL) }
func BenchmarkFig5_TransientSkiplist(b *testing.B) { benchSkiplist(b, skiplist.Transient) }

// --- Fig. 6 -------------------------------------------------------------------

func BenchmarkFig6_BDSpash(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.Spash, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig6_Spash(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.SpashEADR, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig6_CCEH(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.CCEH, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig6_Plush(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.Plush, benchOpts()) }, harness.Uniform, ycsb.WriteHeavy)
}

func BenchmarkFig6_BDSpash_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.Spash, benchOpts()) }, harness.Zipf99, ycsb.WriteHeavy)
}

func BenchmarkFig6_Spash_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.SpashEADR, benchOpts()) }, harness.Zipf99, ycsb.WriteHeavy)
}

func BenchmarkFig6_CCEH_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.CCEH, benchOpts()) }, harness.Zipf99, ycsb.WriteHeavy)
}

func BenchmarkFig6_Plush_Zipf(b *testing.B) {
	benchMap(b, func() *harness.Instance { return harness.Open(kv.Plush, benchOpts()) }, harness.Zipf99, ycsb.WriteHeavy)
}

// --- Fig. 7 -------------------------------------------------------------------

func benchEpochLength(b *testing.B, el time.Duration, dist harness.Dist) {
	o := benchOpts()
	o.EpochLength = el
	o.CacheLines = 1 << 13
	benchMap(b, func() *harness.Instance { return harness.Open(kv.VEB, o) }, dist, ycsb.Mix{ReadPct: 20})
}

func BenchmarkFig7_Epoch100us_Zipf99(b *testing.B) {
	benchEpochLength(b, 100*time.Microsecond, harness.Zipf99)
}

func BenchmarkFig7_Epoch10ms_Zipf99(b *testing.B) {
	benchEpochLength(b, 10*time.Millisecond, harness.Zipf99)
}

func BenchmarkFig7_Epoch1s_Zipf99(b *testing.B) {
	benchEpochLength(b, time.Second, harness.Zipf99)
}

func BenchmarkFig7_Epoch10ms_Uniform(b *testing.B) {
	benchEpochLength(b, 10*time.Millisecond, harness.Uniform)
}

// --- Fig. 8 -------------------------------------------------------------------

func BenchmarkFig8_NVMSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, el := range []time.Duration{time.Millisecond, 100 * time.Millisecond} {
			for _, d := range []harness.Dist{harness.Uniform, harness.Zipf99} {
				o := benchOpts()
				o.EpochLength = el
				inst := harness.Open(kv.VEB, o)
				harness.Run(inst, harness.Workload{
					KeySpace: benchKeySpace, Dist: d, Mix: ycsb.WriteOnly, Prefill: true,
				}, 1, 100*time.Millisecond, 5)
				report += fmt.Sprintf("epoch=%v %s: %.2f MiB; ", el, d, float64(inst.NVMBytes())/(1<<20))
				inst.Close()
			}
		}
		if i == 0 {
			b.Log(report)
		}
	}
}

// --- Sec. 5.2 recovery ---------------------------------------------------------

func BenchmarkRecovery_PHTMvEB(b *testing.B) { benchRecovery(b, kv.VEB) }

func BenchmarkRecovery_BDLSkiplist(b *testing.B) { benchRecovery(b, kv.Skiplist) }

// benchRecovery times recovery (header scan plus index rebuild) of a
// half-filled, fully synced structure.
func benchRecovery(b *testing.B, d *kv.Desc) {
	env := kv.Env{KeySpace: benchKeySpace, Manual: true}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := d.Open(env)
		h := st.NewHandle()
		for k := uint64(0); k < benchKeySpace; k += 2 {
			h.Insert(k, k)
		}
		st.Sys.Sync()
		st.Crash(nvm.CrashOptions{})
		b.StartTimer()
		rec, err := d.Recover(env, st.Heap)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if rec.Len() != benchKeySpace/2 {
			b.Fatalf("recovered %d keys", rec.Len())
		}
		rec.Close()
	}
}
