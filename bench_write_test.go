package skiptrie

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// Write-path benchmarks for the raw-speed work: parallel insert
// throughput (per-goroutine RNG striping shows up here — pre-striping,
// every height draw CASed one shared word) and batched vs per-key
// stores (descent amortization). Run the parallel ones across a
// GOMAXPROCS matrix (CI does 1/2/4) to see the scaling.

// BenchmarkConcurrentStore measures parallel Store throughput into one
// Map: all goroutines share the skiplist head, the trie, and — before
// this PR — a single RNG word and per-key metric stripes.
func BenchmarkConcurrentStore(b *testing.B) {
	m := MustNewMap[int](WithWidth(30))
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := ctr.Add(1) * 0x9E3779B9 & ((1 << 30) - 1)
			m.Store(k, int(k))
		}
	})
}

// BenchmarkConcurrentStoreSharded is the same workload routed through
// Sharded, where only the RNG/metrics stripes and the per-shard
// structures are shared.
func BenchmarkConcurrentStoreSharded(b *testing.B) {
	s := MustNewSharded[int](WithWidth(30), WithShards(8))
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := ctr.Add(1) * 0x9E3779B9 & ((1 << 30) - 1)
			s.Store(k, int(k))
		}
	})
}

// BenchmarkConcurrentStoreMetered adds a shared Metrics collector, the
// worst pre-striping case: every op folded its counters into stripes
// chosen by key hash, so a skewed key stream serialized all recorders.
func BenchmarkConcurrentStoreMetered(b *testing.B) {
	var met Metrics
	m := MustNewMap[int](WithWidth(30), WithMetrics(&met))
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := ctr.Add(1) * 0x9E3779B9 & ((1 << 30) - 1)
			m.Store(k, int(k))
		}
	})
}

// BenchmarkConcurrentStoreMeteredSampled layers latency sampling (1/64)
// on top of the metered benchmark — the full observability stack on the
// hot path. The sampled stream should cost a striped RNG draw per op
// and a clock read per 64th op; CI gates it within 5% of the unsampled
// metered run at GOMAXPROCS=1. The final snapshot's insert percentiles
// are exported as p50-ns/p99-ns metrics so the bench matrix archives
// latency alongside throughput.
func BenchmarkConcurrentStoreMeteredSampled(b *testing.B) {
	var met Metrics
	m := MustNewMap[int](WithWidth(30), WithMetrics(&met), WithLatencySampling(1.0/64))
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := ctr.Add(1) * 0x9E3779B9 & ((1 << 30) - 1)
			m.Store(k, int(k))
		}
	})
	lat := met.Snapshot().Latency[OpInsert]
	b.ReportMetric(float64(lat.P50), "p50-ns")
	b.ReportMetric(float64(lat.P99), "p99-ns")
}

const batchBenchSize = 1024

// BenchmarkStoreBatch inserts sorted disjoint runs via StoreBatch;
// BenchmarkStoreBatchPerKey is the identical key stream through per-key
// Store. The gap between them is the amortization win. ns/op is per
// key in both.
func BenchmarkStoreBatch(b *testing.B) {
	m := MustNewMap[int](WithWidth(40))
	keys := make([]uint64, batchBenchSize)
	vals := make([]int, batchBenchSize)
	var base uint64
	i := batchBenchSize
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i == batchBenchSize {
			for j := range keys {
				keys[j] = base + uint64(j)*3
				vals[j] = j
			}
			base += batchBenchSize * 3
			m.StoreBatch(keys, vals)
			i = 0
		}
		i++ // b.N counts keys, one batch per batchBenchSize iterations
	}
}

func BenchmarkStoreBatchPerKey(b *testing.B) {
	m := MustNewMap[int](WithWidth(40))
	var k uint64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.Store(k, n)
		k += 3
	}
}

// BenchmarkStoreBatchSpread is BenchmarkStoreBatch in the write-churn
// shape: sorted 16-key runs of fresh keys spread over a 4096-slot window
// of a Map populated with 2^16 keys, so consecutive keys of a run lie
// hundreds of level-0 nodes apart. The window advances by its width
// every 4096 keys. ns/op is per key.
func BenchmarkStoreBatchSpread(b *testing.B) {
	const (
		resident = 1 << 16
		gap      = 1 << 12 // key space between resident keys
		window   = 4096    // resident slots one run spreads over
		run      = 16
	)
	m := MustNewMap[int](WithWidth(32))
	for i := uint64(0); i < resident; i++ {
		m.Store(i*gap, 0)
	}
	r := rand.New(rand.NewSource(1))
	keys := make([]uint64, run)
	vals := make([]int, run)
	var lo uint64
	i, stored := run, 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i == run {
			for j := range keys {
				slot := (lo + uint64(r.Intn(window))) % resident
				keys[j] = slot*gap + 1 + uint64(r.Intn(gap-1))
			}
			slices.Sort(keys)
			m.StoreBatch(keys, vals)
			if stored += run; stored%window == 0 {
				lo += window
			}
			i = 0
		}
		i++
	}
}

// BenchmarkStoreBatchSharded runs sorted runs that span several shards,
// so the chunking path (one latch acquire per shard segment) is on the
// measured path.
func BenchmarkStoreBatchSharded(b *testing.B) {
	s := MustNewSharded[int](WithWidth(40), WithShards(8))
	r := rand.New(rand.NewSource(1))
	keys := make([]uint64, batchBenchSize)
	vals := make([]int, batchBenchSize)
	i := batchBenchSize
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i == batchBenchSize {
			for j := range keys {
				keys[j] = r.Uint64() & ((1 << 40) - 1)
				vals[j] = j
			}
			s.StoreBatch(keys, vals)
			i = 0
		}
		i++
	}
}
