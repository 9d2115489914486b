// Benchmarks for the ordered-scan paths: Range/Descend on Map and
// Sharded, and the pull-based iterator they are built on. These are the
// benchmarks the CI benchstat gate tracks (BENCH_* trajectory): ordered
// scans are the workload the cross-shard cursor exists for, so
// regressions here are regressions in the feature's headline numbers.
package skiptrie

import (
	"fmt"
	"math/rand"
	"testing"

	"skiptrie/internal/workload"
)

// scanBenchKeys prefills s with benchM keys spread over the 32-bit
// universe and returns them sorted ascending.
func scanBenchKeys(store func(k, v uint64)) []uint64 {
	keys := workload.SpreadKeys(benchM, 32)
	for _, k := range keys {
		store(k, k)
	}
	return keys
}

func BenchmarkMapRange(b *testing.B) {
	m := MustNewMap[uint64](WithWidth(32), WithSeed(1))
	scanBenchKeys(m.Store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		m.Range(0, func(k, v uint64) bool { n++; return true })
		if n != benchM {
			b.Fatalf("Range visited %d keys, want %d", n, benchM)
		}
	}
	b.ReportMetric(float64(benchM), "keys/scan")
}

// BenchmarkShardedRange is the acceptance benchmark for the cross-shard
// scan: one full ascending pass over benchM keys spread
// across the shards.
func BenchmarkShardedRange(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := MustNewSharded[uint64](WithWidth(32), WithShards(shards), WithSeed(1))
			scanBenchKeys(s.Store)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				s.Range(0, func(k, v uint64) bool { n++; return true })
				if n != benchM {
					b.Fatalf("Range visited %d keys, want %d", n, benchM)
				}
			}
			b.ReportMetric(float64(benchM), "keys/scan")
		})
	}
}

// BenchmarkShardedRangeShort measures bounded scans (128 keys from a
// random start), the regime where per-scan setup cost — seeking every
// shard's cursor — is most visible relative to per-key stepping.
func BenchmarkShardedRangeShort(b *testing.B) {
	const span = 128
	for _, shards := range []int{4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := MustNewSharded[uint64](WithWidth(32), WithShards(shards), WithSeed(1))
			keys := scanBenchKeys(s.Store)
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				s.Range(keys[rng.Intn(len(keys))], func(k, v uint64) bool {
					n++
					return n < span
				})
			}
		})
	}
}

// BenchmarkMapIter walks the whole map through the pull-based cursor —
// the same traversal Range runs, plus the cursor's method-call
// indirection.
func BenchmarkMapIter(b *testing.B) {
	m := MustNewMap[uint64](WithWidth(32), WithSeed(1))
	scanBenchKeys(m.Store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		it := m.Iter()
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		if n != benchM {
			b.Fatalf("cursor visited %d keys, want %d", n, benchM)
		}
	}
}

// BenchmarkShardedIter walks the whole sharded map through the
// cross-shard cursor.
func BenchmarkShardedIter(b *testing.B) {
	for _, shards := range []int{4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := MustNewSharded[uint64](WithWidth(32), WithShards(shards), WithSeed(1))
			scanBenchKeys(s.Store)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				it := s.Iter()
				for ok := it.First(); ok; ok = it.Next() {
					n++
				}
				if n != benchM {
					b.Fatalf("cursor visited %d keys, want %d", n, benchM)
				}
			}
		})
	}
}

// BenchmarkIterSeek measures cursor positioning alone (the per-scan
// setup cost: trie-accelerated descents, one per shard on Sharded).
func BenchmarkIterSeek(b *testing.B) {
	m := MustNewMap[uint64](WithWidth(32), WithSeed(1))
	s := MustNewSharded[uint64](WithWidth(32), WithShards(16), WithSeed(1))
	keys := scanBenchKeys(m.Store)
	for _, k := range keys {
		s.Store(k, k)
	}
	rng := rand.New(rand.NewSource(11))
	b.Run("map", func(b *testing.B) {
		it := m.Iter()
		for i := 0; i < b.N; i++ {
			it.Seek(keys[rng.Intn(len(keys))])
		}
	})
	b.Run("sharded16", func(b *testing.B) {
		it := s.Iter()
		for i := 0; i < b.N; i++ {
			it.Seek(keys[rng.Intn(len(keys))])
		}
	})
}

func BenchmarkMapDescend(b *testing.B) {
	m := MustNewMap[uint64](WithWidth(32), WithSeed(1))
	scanBenchKeys(m.Store)
	max := uint64(1)<<32 - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		m.Descend(max, func(k, v uint64) bool { n++; return n < 1024 })
		if n != 1024 {
			b.Fatalf("Descend visited %d keys, want 1024", n)
		}
	}
}

func BenchmarkShardedDescend(b *testing.B) {
	for _, shards := range []int{4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := MustNewSharded[uint64](WithWidth(32), WithShards(shards), WithSeed(1))
			scanBenchKeys(s.Store)
			max := uint64(1)<<32 - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				s.Descend(max, func(k, v uint64) bool { n++; return n < 1024 })
				if n != 1024 {
					b.Fatalf("Descend visited %d keys, want 1024", n)
				}
			}
		})
	}
}
