// Benchmarks regenerating the reproduction experiments listed in
// README.md, "Reproduction experiments (T1-T8, F1)", one benchmark
// function per experiment id, plus standard micro-benchmarks of the
// public API. cmd/skipbench runs the same experiment code with larger
// parameters and prints full tables.
package skiptrie

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"skiptrie/internal/baseline/cskiplist"
	"skiptrie/internal/baseline/lockedset"
	"skiptrie/internal/baseline/yfast"
	"skiptrie/internal/core"
	"skiptrie/internal/harness"
	"skiptrie/internal/skiplist"
	"skiptrie/internal/stats"
	"skiptrie/internal/workload"
)

const benchM = 1 << 14

// --- T1: predecessor steps vs universe width ---

func BenchmarkT1PredecessorVsUniverse(b *testing.B) {
	for _, w := range []uint8{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("skiptrie/W=%d", w), func(b *testing.B) {
			s := harness.SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 11})}
			harness.Prefill(s, benchM, w)
			gen := workload.Uniform{W: w}
			rng := rand.New(rand.NewSource(1))
			var steps stats.Op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var c stats.Op
				s.Predecessor(gen.Next(rng), &c)
				steps.Add(c)
			}
			b.ReportMetric(float64(steps.Steps())/float64(b.N), "steps/op")
		})
	}
	// The comparator: one width suffices, its cost depends only on m.
	b.Run("skiplist/anyW", func(b *testing.B) {
		s := harness.CSkipListSet{L: cskiplist.New(11)}
		harness.Prefill(s, benchM, 64)
		gen := workload.Uniform{W: 64}
		rng := rand.New(rand.NewSource(1))
		var steps stats.Op
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var c stats.Op
			s.Predecessor(gen.Next(rng), &c)
			steps.Add(c)
		}
		b.ReportMetric(float64(steps.Steps())/float64(b.N), "steps/op")
	})
}

// --- T2: predecessor vs number of keys ---

func BenchmarkT2PredecessorVsM(b *testing.B) {
	const w = 32
	for _, logM := range []int{10, 14, 18} {
		m := 1 << logM
		b.Run(fmt.Sprintf("skiptrie/m=2^%d", logM), func(b *testing.B) {
			s := harness.SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 7})}
			harness.Prefill(s, m, w)
			gen := workload.Uniform{W: w}
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Predecessor(gen.Next(rng), nil)
			}
		})
		b.Run(fmt.Sprintf("skiplist/m=2^%d", logM), func(b *testing.B) {
			s := harness.CSkipListSet{L: cskiplist.New(7)}
			harness.Prefill(s, m, w)
			gen := workload.Uniform{W: w}
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Predecessor(gen.Next(rng), nil)
			}
		})
	}
}

// --- T3: amortized update cost ---

func BenchmarkT3AmortizedUpdates(b *testing.B) {
	for _, w := range []uint8{16, 32, 64} {
		b.Run(fmt.Sprintf("insert+delete/W=%d", w), func(b *testing.B) {
			s := harness.SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 5})}
			harness.Prefill(s, benchM, w)
			gen := workload.Uniform{W: w}
			rng := rand.New(rand.NewSource(3))
			var steps stats.Op
			touches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := gen.Next(rng)
				var c stats.Op
				if i%2 == 0 {
					s.Insert(k, &c)
				} else {
					s.Delete(k, &c)
				}
				if c.TrieTouch {
					touches++
				}
				steps.Add(c)
			}
			b.ReportMetric(float64(steps.Steps())/float64(b.N), "steps/op")
			b.ReportMetric(float64(touches)/float64(b.N), "trie-touch-rate")
		})
	}
}

// --- T4: throughput scaling ---

func BenchmarkT4Throughput(b *testing.B) {
	const w = 32
	builds := []struct {
		name  string
		build func() harness.Set
	}{
		{"skiptrie", func() harness.Set { return harness.SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 3})} }},
		{"skiplist", func() harness.Set { return harness.CSkipListSet{L: cskiplist.New(3)} }},
		{"yfast+lock", func() harness.Set { return harness.LockedYFastSet{Y: yfast.NewLocked(w)} }},
		{"treap+lock", func() harness.Set { return harness.LockedTreapSet{S: lockedset.New(3)} }},
	}
	for _, tc := range builds {
		b.Run(tc.name, func(b *testing.B) {
			s := tc.build()
			harness.Prefill(s, benchM, w)
			mix := workload.Mix{InsertPct: 5, DeletePct: 5}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				gen := workload.Uniform{W: w}
				for pb.Next() {
					k := gen.Next(rng)
					switch mix.Pick(rng) {
					case workload.OpInsert:
						s.Insert(k, nil)
					case workload.OpDelete:
						s.Delete(k, nil)
					default:
						s.Predecessor(k, nil)
					}
				}
			})
		})
	}
}

// --- T5: contention on a hot window ---

func BenchmarkT5Contention(b *testing.B) {
	const w = 32
	s := harness.SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 21})}
	harness.Prefill(s, benchM, w)
	gen := workload.Clustered{W: w, Base: 1 << 20, Span: 1024}
	mix := workload.Mix{InsertPct: 25, DeletePct: 25}
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			k := gen.Next(rng)
			switch mix.Pick(rng) {
			case workload.OpInsert:
				s.Insert(k, nil)
			case workload.OpDelete:
				s.Delete(k, nil)
			default:
				s.Predecessor(k, nil)
			}
		}
	})
}

// --- T6: space per key ---

func BenchmarkT6Space(b *testing.B) {
	for _, w := range []uint8{16, 32, 64} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			// Build once; the timed loop measures the space query itself,
			// the metrics report the structural ratios the claim is about.
			st := core.NewSet(core.Config{Width: w, Seed: 17})
			harness.Prefill(harness.SkipTrieSet{T: st}, benchM, w)
			b.ResetTimer()
			var sp core.SpaceStats
			for i := 0; i < b.N; i++ {
				sp = st.Space()
			}
			b.ReportMetric(float64(sp.TowerNodes)/float64(sp.Keys), "towernodes/key")
			b.ReportMetric(float64(sp.TriePrefix)/float64(sp.Keys), "prefixes/key")
		})
	}
}

// --- F1: top-level gap distribution ---

func BenchmarkF1TopLevelGaps(b *testing.B) {
	for _, w := range []uint8{16, 32, 64} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			// Build once; the timed loop measures the gap sweep, the
			// metrics report the distribution the claim is about.
			st := core.NewSet(core.Config{Width: w, Seed: 29})
			harness.Prefill(harness.SkipTrieSet{T: st}, benchM, w)
			b.ResetTimer()
			var gaps []int
			for i := 0; i < b.N; i++ {
				gaps = st.TopGaps()
			}
			sum := 0
			for _, g := range gaps {
				sum += g
			}
			if len(gaps) > 0 {
				b.ReportMetric(float64(sum)/float64(len(gaps)), "meangap")
			}
			b.ReportMetric(float64(int(w)), "predicted-meangap")
		})
	}
}

// --- T8: prev-repair discipline ---

func BenchmarkT8PrevRepair(b *testing.B) {
	const w = 16
	for _, eager := range []bool{false, true} {
		name := "relaxed"
		cfg := core.Config{Width: w, Seed: 61}
		if eager {
			name = "eager"
			cfg.Repair = skiplist.RepairEager
		}
		b.Run(name, func(b *testing.B) {
			s := harness.SkipTrieSet{T: core.NewSet(cfg)}
			harness.Prefill(s, benchM/4, w)
			gen := workload.Clustered{W: w, Base: 1 << 12, Span: 4096}
			mix := workload.Mix{InsertPct: 45, DeletePct: 45}
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				for pb.Next() {
					k := gen.Next(rng)
					switch mix.Pick(rng) {
					case workload.OpInsert:
						s.Insert(k, nil)
					case workload.OpDelete:
						s.Delete(k, nil)
					default:
						s.Predecessor(k, nil)
					}
				}
			})
		})
	}
}

// --- S1: sharded vs unsharded under controlled goroutine counts ---

// kvStore is the Map/Sharded surface the sharding benchmarks compare.
type kvStore interface {
	Store(key uint64, val uint64)
	Load(key uint64) (uint64, bool)
	Delete(key uint64) bool
}

// shardedBenchBuilds pairs the single-trie Map against Sharded at the
// default (GOMAXPROCS-rounded) and a fixed 8-shard configuration.
func shardedBenchBuilds() []struct {
	name  string
	build func() kvStore
} {
	const w = 32
	return []struct {
		name  string
		build func() kvStore
	}{
		{"map", func() kvStore { return MustNewMap[uint64](WithWidth(w), WithSeed(1)) }},
		{"sharded8", func() kvStore { return MustNewSharded[uint64](WithWidth(w), WithShards(8), WithSeed(1)) }},
	}
}

// runShardedBench splits b.N across g goroutines, each running worker
// with its own rng, and waits for all of them.
func runShardedBench(b *testing.B, g int, worker func(rng *rand.Rand, n int)) {
	per := (b.N + g - 1) / g
	var wg sync.WaitGroup
	b.ResetTimer()
	for id := 0; id < g; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(rand.New(rand.NewSource(int64(id)*6151+1)), per)
		}(id)
	}
	wg.Wait()
}

var shardedBenchGs = []int{1, 2, 4, 8, 16}

func BenchmarkShardedStore(b *testing.B) {
	for _, tc := range shardedBenchBuilds() {
		for _, g := range shardedBenchGs {
			b.Run(fmt.Sprintf("%s/g=%d", tc.name, g), func(b *testing.B) {
				s := tc.build()
				for _, k := range workload.SpreadKeys(benchM, 32) {
					s.Store(k, k)
				}
				runShardedBench(b, g, func(rng *rand.Rand, n int) {
					for i := 0; i < n; i++ {
						k := uint64(rng.Uint32())
						s.Store(k, k)
					}
				})
			})
		}
	}
}

func BenchmarkShardedLoad(b *testing.B) {
	for _, tc := range shardedBenchBuilds() {
		for _, g := range shardedBenchGs {
			b.Run(fmt.Sprintf("%s/g=%d", tc.name, g), func(b *testing.B) {
				s := tc.build()
				keys := workload.SpreadKeys(benchM, 32)
				for _, k := range keys {
					s.Store(k, k)
				}
				runShardedBench(b, g, func(rng *rand.Rand, n int) {
					for i := 0; i < n; i++ {
						s.Load(keys[rng.Intn(len(keys))])
					}
				})
			})
		}
	}
}

// BenchmarkShardedMixed is the acceptance workload: 50% Load, 25%
// Store, 25% Delete over random keys. On multicore hardware the
// sharded rows should clearly beat the single trie as g grows, since
// writers in different shards share no CAS targets or cache lines.
func BenchmarkShardedMixed(b *testing.B) {
	for _, tc := range shardedBenchBuilds() {
		for _, g := range shardedBenchGs {
			b.Run(fmt.Sprintf("%s/g=%d", tc.name, g), func(b *testing.B) {
				s := tc.build()
				for _, k := range workload.SpreadKeys(benchM, 32) {
					s.Store(k, k)
				}
				runShardedBench(b, g, func(rng *rand.Rand, n int) {
					for i := 0; i < n; i++ {
						k := uint64(rng.Uint32())
						switch rng.Intn(4) {
						case 0:
							s.Store(k, k)
						case 1:
							s.Delete(k)
						default:
							s.Load(k)
						}
					}
				})
			})
		}
	}
}

// --- standard micro-benchmarks of the public API ---

func BenchmarkInsert(b *testing.B) {
	st := MustNew(WithWidth(64))
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Insert(rng.Uint64())
	}
}

func BenchmarkContains(b *testing.B) {
	st := MustNew(WithWidth(64))
	keys := workload.SpreadKeys(benchM, 64)
	for _, k := range keys {
		st.Insert(k)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Contains(keys[rng.Intn(len(keys))])
	}
}

func BenchmarkPredecessor(b *testing.B) {
	st := MustNew(WithWidth(64))
	for _, k := range workload.SpreadKeys(benchM, 64) {
		st.Insert(k)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Predecessor(rng.Uint64())
	}
}

func BenchmarkDeleteInsertCycle(b *testing.B) {
	st := MustNew(WithWidth(32))
	keys := workload.SpreadKeys(benchM, 32)
	for _, k := range keys {
		st.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		st.Delete(k)
		st.Insert(k)
	}
}

func BenchmarkMapStoreLoad(b *testing.B) {
	m := MustNewMap[int](WithWidth(32))
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Uint32())
		m.Store(k, i)
		m.Load(k)
	}
}

// BenchmarkMapStore measures the Store-existing-key (update) path. With
// values stored unboxed in the node, overwriting allocates nothing — the
// allocs/op this reports is the boxing cost the generic value path
// removed (the old any-based path paid an interface conversion plus a
// value cell per Store).
func BenchmarkMapStore(b *testing.B) {
	m := MustNewMap[uint64](WithWidth(32))
	keys := workload.SpreadKeys(benchM, 32)
	for _, k := range keys {
		m.Store(k, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(keys[i%len(keys)], uint64(i))
	}
}

// BenchmarkMapLoad measures the read path; like Store-existing it runs
// allocation-free.
func BenchmarkMapLoad(b *testing.B) {
	m := MustNewMap[uint64](WithWidth(32))
	keys := workload.SpreadKeys(benchM, 32)
	for i, k := range keys {
		m.Store(k, uint64(i))
	}
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(keys[rng.Intn(len(keys))])
	}
}
