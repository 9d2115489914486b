package harness

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"skiptrie/internal/baseline/cskiplist"
	"skiptrie/internal/baseline/lockedset"
	"skiptrie/internal/baseline/yfast"
	"skiptrie/internal/core"
	"skiptrie/internal/reshard"
	"skiptrie/internal/shard"
	"skiptrie/internal/skiplist"
	"skiptrie/internal/stats"
	"skiptrie/internal/uintbits"
	"skiptrie/internal/workload"
)

// Scale controls experiment sizes so the same code serves quick `go test
// -bench` runs and the larger cmd/skipbench sweeps.
type Scale struct {
	M        int           // resident keys
	Queries  int           // sequential measured queries
	Duration time.Duration // per concurrent cell
	Threads  []int         // thread counts for scaling experiments
	Shards   []int         // shard counts for the S1 sharding sweep
}

// DefaultScale is sized for seconds-per-experiment runs.
func DefaultScale() Scale {
	return Scale{
		M:        1 << 14,
		Queries:  20000,
		Duration: 150 * time.Millisecond,
		Threads:  []int{1, 2, 4, 8},
		Shards:   []int{1, 2, 4, 8, 16},
	}
}

// shardCounts returns the S1 sweep's shard counts, defaulting when the
// Scale predates the field.
func (sc Scale) shardCounts() []int {
	if len(sc.Shards) == 0 {
		return []int{1, 2, 4, 8, 16}
	}
	return sc.Shards
}

// T1PredecessorVsUniverse: predecessor step cost grows like log log u for
// the SkipTrie and stays ~log m for the classic skiplist, independent of u.
func T1PredecessorVsUniverse(sc Scale) Result {
	res := Result{
		Name:   "T1 predecessor cost vs universe width",
		Claim:  "SkipTrie predecessor is O(log log u); skiplist is O(log m) independent of u",
		Header: []string{"W=log u", "levels", "st steps/op", "st probes/op", "sl steps/op", "sl/st"},
	}
	for _, w := range []uint8{8, 16, 24, 32, 48, 64} {
		st := SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 11})}
		sl := CSkipListSet{L: cskiplist.New(11)}
		m := sc.M
		if w < 16 {
			m = min(m, 1<<(w-2)) // keep small universes sparse
		}
		Prefill(st, m, w)
		Prefill(sl, m, w)
		gen := workload.Uniform{W: w}
		stSteps := MeasureSteps(st, gen, workload.Mix{}, sc.Queries, 101)
		slSteps := MeasureSteps(sl, gen, workload.Mix{}, sc.Queries, 101)
		q := float64(sc.Queries)
		res.AddRow(
			I(int(w)),
			I(uintbits.Levels(w)),
			F(float64(stSteps.Steps())/q),
			F(float64(stSteps.HashProbes)/q),
			F(float64(slSteps.Steps())/q),
			F2(float64(slSteps.Steps())/float64(stSteps.Steps())),
		)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("m = %d resident keys, uniform queries", sc.M))
	return res
}

// T2PredecessorVsM: the intro's worked example — SkipTrie cost flat in m,
// skiplist cost grows with log m; crossover at small m.
func T2PredecessorVsM(sc Scale) Result {
	res := Result{
		Name:   "T2 predecessor cost vs number of keys (W=32)",
		Claim:  "SkipTrie cost flat in m; skiplist grows as log m (paper: m=2^20,u=2^32: log m=20 vs log log u=5)",
		Header: []string{"m", "log m", "st steps/op", "sl steps/op", "sl/st", "st ns/op", "sl ns/op"},
	}
	const w = 32
	for _, logM := range []int{10, 12, 14, 16, 18, 20} {
		m := 1 << logM
		if m > sc.M*64 {
			break
		}
		st := SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 7})}
		sl := CSkipListSet{L: cskiplist.New(7)}
		Prefill(st, m, w)
		Prefill(sl, m, w)
		gen := workload.Uniform{W: w}
		q := sc.Queries
		t0 := time.Now()
		stSteps := MeasureSteps(st, gen, workload.Mix{}, q, 303)
		stNs := float64(time.Since(t0).Nanoseconds()) / float64(q)
		t0 = time.Now()
		slSteps := MeasureSteps(sl, gen, workload.Mix{}, q, 303)
		slNs := float64(time.Since(t0).Nanoseconds()) / float64(q)
		res.AddRow(
			I(m), I(logM),
			F(float64(stSteps.Steps())/float64(q)),
			F(float64(slSteps.Steps())/float64(q)),
			F2(float64(slSteps.Steps())/float64(stSteps.Steps())),
			F(stNs), F(slNs),
		)
	}
	return res
}

// T3AmortizedUpdates: updates amortize trie maintenance — only ~1/log u of
// them touch the x-fast trie, so the mean update cost stays O(log log u).
func T3AmortizedUpdates(sc Scale) Result {
	res := Result{
		Name:   "T3 amortized update cost",
		Claim:  "only ~1/log u of updates touch the trie; amortized update cost O(log log u)",
		Header: []string{"W", "ins steps/op", "del steps/op", "touch rate", "1/log u", "trie lvls/touch"},
	}
	for _, w := range []uint8{16, 32, 64} {
		st := core.NewSet(core.Config{Width: w, Seed: 5})
		set := SkipTrieSet{T: st}
		Prefill(set, sc.M, w)
		rng := rand.New(rand.NewSource(404))
		gen := workload.Uniform{W: w}
		var insSteps, insLvls, delSteps, delLvls uint64
		insTouches, delTouches := 0, 0
		var inserted []uint64
		insOps := sc.Queries / 2
		for i := 0; i < insOps; i++ {
			k := gen.Next(rng)
			var c stats.Op
			if set.Insert(k, &c) {
				inserted = append(inserted, k)
			}
			insSteps += c.Steps()
			insLvls += c.TrieLevels
			if c.TrieTouch {
				insTouches++
			}
		}
		for _, k := range inserted {
			var c stats.Op
			set.Delete(k, &c)
			delSteps += c.Steps()
			delLvls += c.TrieLevels
			if c.TrieTouch {
				delTouches++
			}
		}
		touchRate := float64(insTouches) / float64(insOps)
		lvlsPerTouch := 0.0
		if t := insTouches + delTouches; t > 0 {
			lvlsPerTouch = float64(insLvls+delLvls) / float64(t)
		}
		res.AddRow(
			I(int(w)),
			F(float64(insSteps)/float64(insOps)),
			F(float64(delSteps)/float64(max(len(inserted), 1))),
			F2(touchRate),
			F2(1/float64(w)),
			F(lvlsPerTouch),
		)
	}
	res.Notes = append(res.Notes,
		"touch rate = fraction of inserts whose tower reached the top level (paper: 2^-(levels-1) = 1/log u)")
	return res
}

// T4Throughput: concurrent throughput scaling against the baselines.
func T4Throughput(sc Scale) Result {
	res := Result{
		Name:   "T4 throughput vs goroutines (W=32)",
		Claim:  "lock-free scaling: SkipTrie sustains throughput under concurrency; coarse locks serialize",
		Header: []string{"mix", "threads", "skiptrie kop/s", "skiplist kop/s", "yfast+lock kop/s", "treap+lock kop/s"},
	}
	const w = 32
	mixes := []workload.Mix{
		{InsertPct: 5, DeletePct: 5},
		{InsertPct: 25, DeletePct: 25},
	}
	for _, mix := range mixes {
		for _, threads := range sc.Threads {
			row := []string{mix.String(), I(threads)}
			for _, build := range []func() Set{
				func() Set { return SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 3})} },
				func() Set { return CSkipListSet{L: cskiplist.New(3)} },
				func() Set { return LockedYFastSet{Y: yfast.NewLocked(w)} },
				func() Set { return LockedTreapSet{S: lockedset.New(3)} },
			} {
				s := build()
				Prefill(s, sc.M, w)
				r := RunConcurrent(s, workload.Uniform{W: w}, mix, threads, sc.Duration, 900+int64(threads))
				row = append(row, F(r.OpsPerMs))
			}
			res.AddRow(row...)
		}
	}
	return res
}

// T5Contention: steps per operation under a hot key window as the thread
// count grows — the "+c" term of Theorem 4.3 (additive, not
// multiplicative).
func T5Contention(sc Scale) Result {
	res := Result{
		Name:   "T5 contention: steps/op on a hot window (W=32)",
		Claim:  "contention adds +c to query cost rather than multiplying it",
		Header: []string{"threads", "pred steps/op", "update steps/op", "kop/s"},
	}
	const w = 32
	for _, threads := range sc.Threads {
		st := SkipTrieSet{T: core.NewSet(core.Config{Width: w, Seed: 21})}
		Prefill(st, sc.M, w)
		gen := workload.Clustered{W: w, Base: 1 << 20, Span: 1024}
		r := RunConcurrent(st, gen, workload.Mix{InsertPct: 25, DeletePct: 25}, threads, sc.Duration, 31+int64(threads))
		// Attribute steps: reads vs writes are mixed; report overall plus
		// CAS+DCSS (write-side) separately.
		opsF := float64(max(r.Ops, 1))
		res.AddRow(
			I(threads),
			F(float64(r.Steps.Hops+r.Steps.HashProbes)/opsF),
			F(float64(r.Steps.CAS+r.Steps.DCSS)/opsF),
			F(r.OpsPerMs),
		)
	}
	res.Notes = append(res.Notes, "hot window of 1024 keys; 50/25/25 mix")
	return res
}

// T6Space: O(m) space — tower nodes ~2m, trie prefixes ~m, both flat in m.
// The heap column is the live heap the prefill added, in bytes per key,
// and the four columns after it say where those bytes went (spaceSplit).
// Every per-key figure divides by the keys the prefill inserted, which is
// fewer than m where m exceeds workload.SpreadKeys' cap of 2^(W−1); the m
// column prints that count.
func T6Space(sc Scale) Result {
	res := Result{
		Name:  "T6 space per key",
		Claim: "O(m) space: ~2 tower nodes/key and O(1) trie prefixes/key, for any universe",
		Header: []string{"W", "m", "tower nodes/key", "heap B/key", "data B/key", "tower B/key",
			"prefix B/key", "bucket B/key", "trie prefixes/key", "top-level rate", "1/log u"},
	}
	for _, w := range []uint8{16, 32, 64} {
		for _, m := range []int{sc.M / 4, sc.M} {
			s := measureSpace(w, m)
			keys := float64(max(s.sp.Keys, 1))
			res.AddRow(
				I(int(w)), I(s.sp.Keys),
				F2(float64(s.sp.TowerNodes)/keys),
				F(s.heap/keys),
				F(s.data/keys), F(s.tower/keys), F(s.prefix/keys), F(s.bucket/keys),
				F2(float64(s.sp.TriePrefix)/keys),
				F2(float64(s.tops)/keys),
				F2(1/float64(w)),
			)
		}
	}
	return res
}

// Bytes a set-form SkipTrie allocates per counted object on 64-bit
// targets, rounded up to Go's size classes: a data node is a bare
// skiplist root (a 64-byte Node and a birth stamp, 72 B) in the 80-byte
// class; each tower node above level 0 is 64 B of its tower's slab (a
// slab of h−1 nodes, 64·(h−1) B, is itself a size class); a trie prefix
// is a 32-byte hash-table node plus the 24-byte cell holding its pointer
// pair; a hash bucket is an 8-byte directory slot plus a 32-byte sentinel
// node.
const (
	rootBytes   = 80
	towerBytes  = 64
	prefixBytes = 32 + 24
	bucketBytes = 8 + 32
)

// spaceSplit is one T6 cell: the live heap a prefill added to a set-form
// SkipTrie, and that heap attributed to data nodes, tower slabs, trie
// prefixes and hash buckets from the structure's counts.
type spaceSplit struct {
	sp                                core.SpaceStats
	tops                              int
	heap, data, tower, prefix, bucket float64 // bytes
}

// measureSpace prefills a fresh set-form SkipTrie of width w with up to m
// keys and measures where its heap went.
func measureSpace(w uint8, m int) spaceSplit {
	st := core.NewSet(core.Config{Width: w, Seed: 17})
	before := liveHeap()
	Prefill(SkipTrieSet{T: st}, m, w)
	s := spaceSplit{heap: float64(int64(liveHeap() - before)), sp: st.Space()}
	s.tops = max(len(st.TopGaps())-1, 1)
	s.data = float64(s.sp.Keys * rootBytes)
	s.tower = float64((s.sp.TowerNodes - s.sp.Keys) * towerBytes)
	s.prefix = float64(s.sp.TriePrefix * prefixBytes)
	s.bucket = float64(s.sp.HashBuckets * bucketBytes)
	return s
}

// liveHeap returns the live heap in bytes after two full collections. A
// skiplist's sync.Pool keeps its whole list reachable from the runtime's
// pool registry until the second collection after the list was dropped,
// so one collection would count a structure an earlier caller left behind
// and let the next collection free it mid-measurement.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// F1TopGaps: Figure 1's structural claim — trie-indexed keys are spaced
// geometrically with mean ~log u.
func F1TopGaps(sc Scale) Result {
	res := Result{
		Name:   "F1 top-level gap distribution",
		Claim:  "gaps between trie-indexed keys ~ Geometric(1/log u): mean ~= log u (Fig 1)",
		Header: []string{"W", "m", "gaps", "mean", "p50", "p90", "p99", "max", "predicted mean"},
	}
	for _, w := range []uint8{16, 32, 64} {
		st := core.NewSet(core.Config{Width: w, Seed: 29})
		Prefill(SkipTrieSet{T: st}, sc.M, w)
		gaps := st.TopGaps()
		sort.Ints(gaps)
		n := len(gaps)
		if n == 0 {
			continue
		}
		sum := 0
		for _, g := range gaps {
			sum += g
		}
		pick := func(q float64) int { return gaps[min(int(q*float64(n)), n-1)] }
		predicted := float64(int(1) << (uintbits.Levels(w) - 1))
		res.AddRow(
			I(int(w)), I(sc.M), I(n),
			F(float64(sum)/float64(n)),
			I(pick(0.5)), I(pick(0.9)), I(pick(0.99)), I(gaps[n-1]),
			F(predicted),
		)
	}
	return res
}

// T7DCSSvsCAS: the fallback mode (DCSS replaced by CAS) stays correct; its
// cost is comparable.
func T7DCSSvsCAS(sc Scale) Result {
	res := Result{
		Name:   "T7 DCSS vs CAS-fallback",
		Claim:  "replacing DCSS with CAS preserves linearizability and lock-freedom; perf is comparable",
		Header: []string{"mode", "threads", "kop/s", "steps/op", "validate"},
	}
	const w = 32
	for _, disable := range []bool{false, true} {
		mode := "DCSS"
		if disable {
			mode = "CAS-only"
		}
		for _, threads := range []int{1, sc.Threads[len(sc.Threads)-1]} {
			st := core.NewSet(core.Config{Width: w, DisableDCSS: disable, Seed: 43})
			s := SkipTrieSet{T: st}
			Prefill(s, sc.M, w)
			r := RunConcurrent(s, workload.Uniform{W: w}, workload.Mix{InsertPct: 25, DeletePct: 25}, threads, sc.Duration, 77)
			verdict := "ok"
			if err := st.Validate(); err != nil {
				verdict = "FAIL: " + err.Error()
			}
			res.AddRow(mode, I(threads), F(r.OpsPerMs),
				F(float64(r.Steps.Steps())/float64(max(r.Ops, 1))), verdict)
		}
	}
	return res
}

// T8PrevRepair: the paper's Section 1 design discussion — relaxed prev
// repair (option 2, the paper's choice) vs eager helping (option 1).
func T8PrevRepair(sc Scale) Result {
	res := Result{
		Name:   "T8 prev-pointer repair discipline",
		Claim:  "relaxed repair (paper's choice) avoids eager helping's extra write contention",
		Header: []string{"mode", "threads", "kop/s", "writes/op", "reads/op"},
	}
	const w = 16 // small width: more keys reach the top, stressing prev repair
	for _, eager := range []bool{false, true} {
		mode := "relaxed (opt 2)"
		repair := skiplist.RepairRelaxed
		if eager {
			mode = "eager (opt 1)"
			repair = skiplist.RepairEager
		}
		for _, threads := range []int{1, sc.Threads[len(sc.Threads)-1]} {
			st := core.NewSet(core.Config{Width: w, Repair: repair, Seed: 61})
			s := SkipTrieSet{T: st}
			Prefill(s, sc.M/4, w)
			// Insert/delete-heavy mix on a hot window maximizes top-level
			// churn, the scenario of Fig 2.
			gen := workload.Clustered{W: w, Base: 1 << 12, Span: 4096}
			r := RunConcurrent(s, gen, workload.Mix{InsertPct: 45, DeletePct: 45}, threads, sc.Duration, 88)
			opsF := float64(max(r.Ops, 1))
			res.AddRow(mode, I(threads), F(r.OpsPerMs),
				F2(float64(r.Steps.CAS+r.Steps.DCSS)/opsF),
				F2(float64(r.Steps.Hops+r.Steps.HashProbes)/opsF))
		}
	}
	return res
}

// stripedZipf draws zipf-like ranks (log-uniform: rank ~ n^U, the s=1
// Zipf density) and bit-reverses them so the hottest ranks land in
// different shards. Unlike rand.Zipf — which binds its own rand.Source
// and is unsafe to share — it samples from the per-worker rng
// RunConcurrent passes in.
type stripedZipf struct {
	w uint8
	n uint64
}

// Next returns a skewed, shard-striped key.
func (z stripedZipf) Next(rng *rand.Rand) uint64 {
	rank := uint64(math.Pow(float64(z.n), rng.Float64())) - 1
	return bits.Reverse64(rank) >> (64 - z.w)
}

// Width returns the universe width.
func (z stripedZipf) Width() uint8 { return z.w }

// S1ShardedScaling: throughput vs shard count at the highest configured
// thread count, under a uniform spread workload and a Zipf-skewed one
// whose hot ranks are striped across shards. The sharded rows should
// approach shards× the single-trie row's update throughput on multicore
// hardware (shards divide the contention term c of Theorem 4.3);
// ordered-query cost stays flat because stitching only probes neighbor
// shards when the home shard has no answer.
func S1ShardedScaling(sc Scale) Result {
	res := Result{
		Name:  "S1 sharded throughput vs shard count (W=32)",
		Claim: "partitioning by key prefix multiplies update throughput without giving up lock-freedom",
		Header: []string{"shards", "threads", "uniform kop/s", "skew kop/s",
			"pred-heavy kop/s", "p50 us", "p99 us", "p999 us", "balance max/mean"},
	}
	const w = 32
	threads := 1
	if len(sc.Threads) > 0 {
		threads = sc.Threads[len(sc.Threads)-1]
	}
	for _, shards := range sc.shardCounts() {
		// Fresh build + Prefill per cell, like every other experiment, so
		// each column measures the same resident population.
		cell := func(gen workload.KeyGen, mix workload.Mix, seed int64) (*shard.Trie[struct{}], ThroughputResult) {
			tr := shard.New[struct{}](shard.Config{Width: w, Shards: shards, Seed: 23})
			s := ShardedSet{T: tr}
			Prefill(s, sc.M, w)
			return tr, RunConcurrent(s, gen, mix, threads, sc.Duration, seed)
		}
		_, uni := cell(workload.Uniform{W: w}, workload.Mix{InsertPct: 25, DeletePct: 25}, 501)
		// Zipf-skewed with bit-reversed ranks: hot ranks land in different
		// shards, so skew concentrates per-key contention, not per-shard
		// load (a monotone rank*stride map would funnel every hot rank
		// into shard 0).
		_, skew := cell(stripedZipf{w: w, n: uint64(sc.M)}, workload.Mix{InsertPct: 25, DeletePct: 25}, 503)
		tr, pred := cell(workload.Uniform{W: w}, workload.Mix{InsertPct: 5, DeletePct: 5}, 504)

		lens := tr.ShardLens()
		maxLen, total := 0, 0
		for _, n := range lens {
			total += n
			if n > maxLen {
				maxLen = n
			}
		}
		balance := 0.0
		if total > 0 {
			balance = float64(maxLen) * float64(len(lens)) / float64(total)
		}
		res.AddRow(
			I(tr.Shards()), I(threads),
			F(uni.OpsPerMs), F(skew.OpsPerMs), F(pred.OpsPerMs),
			Q(uni.Lat, 0.50), Q(uni.Lat, 0.99), Q(uni.Lat, 0.999),
			F2(balance),
		)
	}
	res.Notes = append(res.Notes,
		"uniform/skew = 50/25/25 contains/insert/delete; pred-heavy = 90/5/5 predecessor/insert/delete",
		"p50/p99/p999 = sampled per-op latency of the uniform cell (1 in 64 ops timed)",
		"balance = busiest shard's key count over the per-shard mean (1.0 = perfectly even)")
	return res
}

// s2Cell runs one S2 configuration: a 4-shard trie absorbing the
// moving-Zipf hot-range workload for one Duration, with or without the
// reshard balancer attached. It reports throughput, the final shard
// count, the final max/mean shard-length skew, and the balancer's
// reshard counts.
func s2Cell(sc Scale, threads int, auto bool) (thr float64, lat stats.Hist, shards int, skew float64, splits, merges uint64) {
	const w = 32
	// MaxShards 64 = 6 prefix bits = a 2^26-key minimum shard range, a
	// quarter of the hot window: fine enough to spread the window over
	// several shards, coarse enough that isolating it doesn't strand a
	// long tail of empty lineage shards.
	tr := shard.New[struct{}](shard.Config{Width: w, Shards: 4, MaxShards: 64, Seed: 23})
	s := ShardedSet{T: tr}
	Prefill(s, sc.M/4, w) // an evenly spread resident population
	// Window of 2^28 keys advancing every 50k draws: at any instant the
	// whole write stream lands in one prefix region, head-hot.
	gen := workload.NewMovingZipf(w, 1<<28, 50_000, 0)
	mix := workload.Mix{InsertPct: 40, DeletePct: 10, ContainsPct: 40}
	var bal *reshard.Balancer
	if auto {
		bal = reshard.New(reshard.ForTrie(tr), reshard.Policy{
			Interval: 3 * time.Millisecond,
			MinOps:   512,
			MinLen:   2048,
		})
		bal.Start()
	}
	r := RunConcurrent(s, gen, mix, threads, sc.Duration, 601)
	if bal != nil {
		bal.Stop()
		// Settle: a bounded number of synchronous ticks after the load
		// stops, so the measurement sees the partition the balancer
		// converges to rather than a mid-refinement snapshot. With no
		// traffic every empty lineage shard is cold and below the mean,
		// so merges fold them (one per tick); shards actually holding
		// keys stay put.
		for i := 0; i < 64; i++ {
			bal.Tick()
		}
	}
	skew = reshard.SkewOf(tr.ShardLens())
	sp, mg, _, _ := tr.ReshardStats()
	return r.OpsPerMs, r.Lat, tr.Shards(), skew, sp, mg
}

// S2HotRangeResharding: the hot-range ablation for dynamic resharding.
// A moving Zipf window parks virtually the whole write stream in one
// prefix region, the workload static prefix sharding cannot spread: the
// static partition's hot shard absorbs every insert and its max/mean
// shard-length skew balloons. With the balancer attached the hot shard
// is split online (and cold buddies merged), so the same stream ends in
// a finer partition over the hot region with materially lower skew —
// the distribution-adaptivity claim, in the spirit of the Splay-List's
// access-rate adaptation but by repartitioning instead of restructuring.
func S2HotRangeResharding(sc Scale) Result {
	res := Result{
		Name:  "S2 hot-range: static vs auto-resharded partition (W=32)",
		Claim: "online split/merge keeps shard-length skew bounded under a moving hot range that defeats static sharding",
		Header: []string{"mode", "threads", "kop/s", "p50 us", "p99 us", "p999 us",
			"final shards", "lens max/mean", "splits", "merges"},
	}
	threads := 1
	if len(sc.Threads) > 0 {
		threads = sc.Threads[len(sc.Threads)-1]
	}
	for _, auto := range []bool{false, true} {
		mode := "static"
		if auto {
			mode = "auto-reshard"
		}
		thr, lat, shards, skew, splits, merges := s2Cell(sc, threads, auto)
		res.AddRow(mode, I(threads), F(thr),
			Q(lat, 0.50), Q(lat, 0.99), Q(lat, 0.999),
			I(shards), F2(skew), I(int(splits)), I(int(merges)))
	}
	res.Notes = append(res.Notes,
		"workload: 40/10/40/10 insert/delete/contains/pred from a 2^28-key tempered-Zipf window advancing every 50k draws",
		"p50/p99/p999 = sampled per-op latency (1 in 64 ops timed)",
		"lens max/mean = busiest shard's key count over the per-shard mean at quiescence (1.0 = perfectly even)")
	return res
}

// All runs every experiment.
func All(sc Scale) []Result {
	return []Result{
		T1PredecessorVsUniverse(sc),
		T2PredecessorVsM(sc),
		T3AmortizedUpdates(sc),
		T4Throughput(sc),
		T5Contention(sc),
		T6Space(sc),
		F1TopGaps(sc),
		T7DCSSvsCAS(sc),
		T8PrevRepair(sc),
		S1ShardedScaling(sc),
		S2HotRangeResharding(sc),
	}
}
