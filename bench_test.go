package btreeperf_test

// One benchmark per figure of the paper's evaluation (Figures 3–16): each
// runs that figure's experiment in quick mode (reduced sweep and
// replication) and reports a headline metric from the regenerated series,
// so `go test -bench .` re-derives every result. The full-resolution
// tables are produced by cmd/btfigures.
//
// The trailing benchmarks are the real-time library micro-benchmarks: the
// modern, wall-clock analogue of Figure 12's algorithm comparison.

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"btreeperf"
	"btreeperf/internal/experiments"
	"btreeperf/internal/table"
	"btreeperf/internal/xrand"
)

// benchOptions keeps per-figure bench runtime moderate.
var benchOptions = experiments.Options{Quick: true, Seeds: 1, Ops: 1500}

// runFigure executes one figure per benchmark iteration and reports the
// named cell of the last row as a metric.
func runFigure(b *testing.B, id string, metricCol int, metricName string) {
	f, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("figure %s not registered", id)
	}
	var tb *table.Table
	for i := 0; i < b.N; i++ {
		var err error
		tb, err = f.Run(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tb.Rows) == 0 {
		b.Fatal("no rows")
	}
	last := tb.Rows[len(tb.Rows)-1]
	if v, err := strconv.ParseFloat(last[metricCol], 64); err == nil {
		b.ReportMetric(v, metricName)
	}
}

func BenchmarkFigure03(b *testing.B) { runFigure(b, "fig03", 2, "sim_insert_resp") }
func BenchmarkFigure04(b *testing.B) { runFigure(b, "fig04", 2, "sim_search_resp") }
func BenchmarkFigure05(b *testing.B) { runFigure(b, "fig05", 2, "sim_insert_resp") }
func BenchmarkFigure06(b *testing.B) { runFigure(b, "fig06", 2, "sim_search_resp") }
func BenchmarkFigure07(b *testing.B) { runFigure(b, "fig07", 2, "sim_insert_resp") }
func BenchmarkFigure08(b *testing.B) { runFigure(b, "fig08", 2, "sim_search_resp") }
func BenchmarkFigure09(b *testing.B) { runFigure(b, "fig09", 5, "crossings_per_op") }
func BenchmarkFigure10(b *testing.B) { runFigure(b, "fig10", 2, "sim_root_rho_w") }
func BenchmarkFigure11(b *testing.B) { runFigure(b, "fig11", 1, "max_throughput_D20") }
func BenchmarkFigure12(b *testing.B) { runFigure(b, "fig12", 3, "link_model_resp") }
func BenchmarkFigure13(b *testing.B) { runFigure(b, "fig13", 3, "rule1_lambda50") }
func BenchmarkFigure14(b *testing.B) { runFigure(b, "fig14", 3, "rule3_lambda50") }
func BenchmarkFigure15(b *testing.B) { runFigure(b, "fig15", 3, "naive_model_resp") }
func BenchmarkFigure16(b *testing.B) { runFigure(b, "fig16", 3, "naive_model_resp") }

// ---------------------------------------------------------------------------
// Analytical framework micro-benchmarks.

func BenchmarkAnalyzeNLC(b *testing.B) {
	m, err := btreeperf.NewModel(40000, 13, btreeperf.PaperCosts(5), 0.5, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	w := btreeperf.Workload{Lambda: 0.3, Mix: btreeperf.PaperMix}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := btreeperf.Analyze(btreeperf.NLC, m, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxThroughput(b *testing.B) {
	m, err := btreeperf.NewModel(40000, 13, btreeperf.PaperCosts(5), 0.5, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	mix := btreeperf.Workload{Mix: btreeperf.PaperMix}
	for i := 0; i < b.N; i++ {
		if _, err := btreeperf.MaxThroughput(btreeperf.NLC, m, mix, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures simulated-operations throughput of the DES.
func BenchmarkSimulator(b *testing.B) {
	for _, alg := range []btreeperf.Algorithm{btreeperf.NLC, btreeperf.Link} {
		b.Run(alg.String(), func(b *testing.B) {
			cfg := btreeperf.PaperSim(alg, 0.1, 5)
			cfg.InitialItems = 4000
			cfg.Ops = 2000
			cfg.Warmup = 200
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := btreeperf.RunSim(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Ops), "sim_ops/iter")
		})
	}
}

// ---------------------------------------------------------------------------
// Real-time concurrent tree: the wall-clock Figure 12.

// benchTreeParallel drives a pre-populated tree with the paper's mix from
// all procs.
func benchTreeParallel(b *testing.B, alg btreeperf.TreeAlgorithm, cap int) {
	tree := btreeperf.NewTree(cap, alg)
	src := xrand.New(1)
	const prefill = 100_000
	for i := 0; i < prefill; i++ {
		tree.Insert(src.Int63n(1<<40), 1)
	}
	var seedCtr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(seedCtr.Add(1) * 7919)
		for pb.Next() {
			k := r.Int63n(1 << 40)
			switch {
			case r.Float64() < 0.3:
				tree.Search(k)
			case r.Float64() < 0.5/0.7:
				tree.Insert(k, 1)
			default:
				tree.Delete(k)
			}
		}
	})
}

func BenchmarkTreeMixedParallel(b *testing.B) {
	for _, alg := range []btreeperf.TreeAlgorithm{
		btreeperf.LockCoupling, btreeperf.Optimistic, btreeperf.LinkType, btreeperf.TreeOLC,
	} {
		for _, cap := range []int{13, 128} {
			b.Run(fmt.Sprintf("%v/cap%d", alg, cap), func(b *testing.B) {
				benchTreeParallel(b, alg, cap)
			})
		}
	}
}

func BenchmarkTreeSearchParallel(b *testing.B) {
	for _, alg := range []btreeperf.TreeAlgorithm{
		btreeperf.LockCoupling, btreeperf.Optimistic, btreeperf.LinkType, btreeperf.TreeOLC,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			tree := btreeperf.NewTree(64, alg)
			src := xrand.New(1)
			for i := 0; i < 100_000; i++ {
				tree.Insert(src.Int63n(1<<40), 1)
			}
			var seedCtr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := xrand.New(seedCtr.Add(1) * 104729)
				for pb.Next() {
					tree.Search(r.Int63n(1 << 40))
				}
			})
		})
	}
}

// BenchmarkDiskTree measures the disk-backed Lehman–Yao tree at two
// buffer-pool sizes (cold vs resident) — the wall-clock counterpart of the
// §8 LRU-buffering analysis.
func BenchmarkDiskTree(b *testing.B) {
	for _, pool := range []int{32, 4096} {
		b.Run(fmt.Sprintf("search/pool%d", pool), func(b *testing.B) {
			tree, err := btreeperf.OpenDiskTree(
				b.TempDir()+"/bench.db",
				btreeperf.DiskTreeOptions{Cap: 64, CacheNodes: pool})
			if err != nil {
				b.Fatal(err)
			}
			defer tree.Close()
			src := xrand.New(1)
			keys := make([]int64, 0, 50000)
			for len(keys) < 50000 {
				k := src.Int63n(1 << 30)
				if fresh, err := tree.Insert(k, 1); err != nil {
					b.Fatal(err)
				} else if fresh {
					keys = append(keys, k)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tree.Search(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(tree.CacheStats().HitRatio(), "hit_ratio")
		})
	}
}

func BenchmarkTreeInsertSequential(b *testing.B) {
	for _, alg := range []btreeperf.TreeAlgorithm{
		btreeperf.LockCoupling, btreeperf.Optimistic, btreeperf.LinkType,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			tree := btreeperf.NewTree(64, alg)
			src := xrand.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.Insert(src.Int63n(1<<50), 1)
			}
		})
	}
}
