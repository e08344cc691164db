package cbtree

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"btreeperf/internal/lock"
	"btreeperf/internal/metrics"
)

// BenchmarkProbe prices the per-level lock telemetry at the tree layer:
// the same bulk-loaded tree and op mix (95% gets, 4% puts, 1% deletes,
// uniform keys, as in the serving benchmark's mem-read workload) with and
// without a metrics.TreeProbe attached. The on − off difference per op is
// the probe's cost; OLC gets bypass the lock queues, so there it prices
// writers only.
func BenchmarkProbe(b *testing.B) {
	const rows = 200_000
	keys := make([]int64, rows)
	vals := make([]uint64, rows)
	for i := range keys {
		keys[i] = int64(i) * 2
		vals[i] = uint64(i)
	}
	for _, alg := range []Algorithm{LockCoupling, Optimistic, LinkType, OLC} {
		for _, probed := range []bool{false, true} {
			name := alg.String() + "/off"
			if probed {
				name = alg.String() + "/on"
			}
			b.Run(name, func(b *testing.B) {
				tr, err := BulkLoad(64, alg, keys, vals, 0.7)
				if err != nil {
					b.Fatal(err)
				}
				if probed {
					p := metrics.NewTreeProbe()
					tr.Instrument(func(level int) lock.Probe { return p.Level(level) })
				}
				var seed atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					r := rand.New(rand.NewPCG(seed.Add(1), 0x9e3779b97f4a7c15))
					for pb.Next() {
						k := int64(r.IntN(2 * rows))
						switch u := r.IntN(1000); {
						case u < 950:
							tr.Search(k)
						case u < 990:
							tr.Insert(k, 1)
						default:
							tr.Delete(k)
						}
					}
				})
			})
		}
	}
}
