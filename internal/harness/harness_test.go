package harness

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"skiptrie/internal/baseline/cskiplist"
	"skiptrie/internal/baseline/lockedset"
	"skiptrie/internal/baseline/yfast"
	"skiptrie/internal/core"
	"skiptrie/internal/shard"
	"skiptrie/internal/workload"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		M:        1 << 9,
		Queries:  400,
		Duration: 20 * time.Millisecond,
		Threads:  []int{1, 2},
		Shards:   []int{1, 4},
	}
}

func TestResultFprint(t *testing.T) {
	r := Result{
		Name:   "demo",
		Claim:  "a claim",
		Header: []string{"col", "longer-col"},
		Notes:  []string{"a note"},
	}
	r.AddRow("1", "2")
	r.AddRow("333333", "4")
	var b strings.Builder
	r.Fprint(&b)
	out := b.String()
	for _, want := range []string{"== demo ==", "claim: a claim", "col", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAdaptersAgree(t *testing.T) {
	// All five adapters expose the same semantics.
	sets := []Set{
		SkipTrieSet{T: core.NewSet(core.Config{Width: 16, Seed: 2})},
		ShardedSet{T: shard.New[struct{}](shard.Config{Width: 16, Shards: 4, Seed: 2})},
		CSkipListSet{L: cskiplist.New(2)},
		LockedYFastSet{Y: yfast.NewLocked(16)},
		LockedTreapSet{S: lockedset.New(2)},
	}
	for _, s := range sets {
		if s.Name() == "" {
			t.Fatal("unnamed set")
		}
		if !s.Insert(10, nil) || s.Insert(10, nil) {
			t.Fatalf("%s: insert semantics", s.Name())
		}
		if !s.Contains(10, nil) || s.Contains(11, nil) {
			t.Fatalf("%s: contains semantics", s.Name())
		}
		if k, ok := s.Predecessor(50, nil); !ok || k != 10 {
			t.Fatalf("%s: Predecessor(50) = %d, %v", s.Name(), k, ok)
		}
		if !s.Delete(10, nil) || s.Delete(10, nil) {
			t.Fatalf("%s: delete semantics", s.Name())
		}
	}
}

func TestPrefill(t *testing.T) {
	s := SkipTrieSet{T: core.NewSet(core.Config{Width: 32, Seed: 4})}
	keys := Prefill(s, 100, 32)
	if len(keys) != 100 {
		t.Fatalf("prefilled %d keys", len(keys))
	}
	for _, k := range keys {
		if !s.Contains(k, nil) {
			t.Fatalf("prefilled key %d missing", k)
		}
	}
}

func TestMeasureSteps(t *testing.T) {
	s := SkipTrieSet{T: core.NewSet(core.Config{Width: 32, Seed: 6})}
	Prefill(s, 500, 32)
	total := MeasureSteps(s, workload.Uniform{W: 32}, workload.Mix{}, 100, 1)
	if total.Steps() == 0 {
		t.Fatal("no steps measured")
	}
}

func TestRunConcurrentCounts(t *testing.T) {
	s := SkipTrieSet{T: core.NewSet(core.Config{Width: 24, Seed: 8})}
	Prefill(s, 256, 24)
	r := RunConcurrent(s, workload.Uniform{W: 24}, workload.Mix{InsertPct: 20, DeletePct: 20}, 2, 30*time.Millisecond, 5)
	if r.Ops == 0 {
		t.Fatal("no ops executed")
	}
	if r.OpsPerMs <= 0 {
		t.Fatal("throughput not positive")
	}
	if r.Steps.Steps() == 0 {
		t.Fatal("no steps aggregated")
	}
	if err := s.T.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Each experiment must run end-to-end at tiny scale and produce rows.
func TestExperimentsProduceRows(t *testing.T) {
	sc := tinyScale()
	for _, tc := range []struct {
		name string
		run  func(Scale) Result
	}{
		{"T1", T1PredecessorVsUniverse},
		{"T2", T2PredecessorVsM},
		{"T3", T3AmortizedUpdates},
		{"T4", T4Throughput},
		{"T5", T5Contention},
		{"T6", T6Space},
		{"F1", F1TopGaps},
		{"T8", T8PrevRepair},
		{"S1", S1ShardedScaling},
		{"S2", S2HotRangeResharding},
	} {
		res := tc.run(sc)
		if len(res.Rows) == 0 {
			t.Fatalf("%s produced no rows", tc.name)
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Header) {
				t.Fatalf("%s: row width %d != header %d", tc.name, len(row), len(res.Header))
			}
		}
	}
}

// TestS2AutoReshardReducesSkew is the S2 acceptance: on the hot-range
// workload the auto-resharded cell must end with a finer partition and
// strictly lower max/mean shard-length skew than the static cell. The
// cell duration is stretched beyond tinyScale so the balancer gets a
// meaningful number of sampling intervals even on a slow runner.
func TestS2AutoReshardReducesSkew(t *testing.T) {
	sc := tinyScale()
	sc.Duration = 300 * time.Millisecond
	threads := 2
	_, _, staticShards, staticSkew, _, _ := s2Cell(sc, threads, false)
	_, _, autoShards, autoSkew, splits, _ := s2Cell(sc, threads, true)
	if splits == 0 || autoShards <= staticShards {
		t.Fatalf("auto cell never split: %d shards (static %d), %d splits", autoShards, staticShards, splits)
	}
	if autoSkew >= staticSkew {
		t.Fatalf("auto skew %.2f not below static skew %.2f", autoSkew, staticSkew)
	}
	if staticSkew < 1.5 {
		t.Fatalf("static cell skew %.2f too low — the hot range never concentrated; workload broken?", staticSkew)
	}
}

// TestRunConcurrentLatencySamplingExact pins the 1-in-64 sampling
// contract that S4's client/server histogram comparison leans on.
// Workers only leave the loop at 64-op batch boundaries and merge
// their local histogram exactly once, under the mutex, so the merged
// histogram holds precisely Ops/64 samples — no batch is half-timed,
// no worker's samples are merged twice. (The double-counting hazard
// audited alongside this lives elsewhere: structures sharing one
// Metrics collector arm a single latency sampler first-wins, so
// summing their per-structure snapshots counts every sample once per
// structure. RunConcurrent's per-run histograms are independent and
// merge additively; internal/server avoids the collector hazard by
// giving every namespace its own collector.)
func TestRunConcurrentLatencySamplingExact(t *testing.T) {
	run := func(seed int64) ThroughputResult {
		s := SkipTrieSet{T: core.NewSet(core.Config{Width: 24, Seed: uint64(seed)})}
		Prefill(s, 256, 24)
		return RunConcurrent(s, workload.Uniform{W: 24},
			workload.Mix{InsertPct: 30, DeletePct: 10}, 3, 30*time.Millisecond, seed)
	}
	r := run(7)
	if r.Ops == 0 || r.Lat.Count == 0 {
		t.Fatalf("empty run: ops=%d samples=%d", r.Ops, r.Lat.Count)
	}
	if r.Lat.Count*64 != uint64(r.Ops) {
		t.Fatalf("sampled %d of %d ops; want exactly 1 in 64 (%d)",
			r.Lat.Count, r.Ops, r.Ops/64)
	}
	var bucketSum uint64
	for _, c := range r.Lat.Counts {
		bucketSum += c
	}
	if bucketSum != r.Lat.Count {
		t.Fatalf("bucket sum %d != count %d: merge lost or duplicated samples", bucketSum, r.Lat.Count)
	}
	// Independent runs merge additively — the harness never shares
	// histograms between structures.
	r2 := run(11)
	merged := r.Lat
	merged.Merge(r2.Lat)
	if merged.Count != r.Lat.Count+r2.Lat.Count {
		t.Fatalf("merge not additive: %d != %d + %d", merged.Count, r.Lat.Count, r2.Lat.Count)
	}
}

// TestT6AttributesHeap checks T6's split of the heap: at W=32 the data
// node, tower slab, trie prefix and hash bucket bytes, each computed from
// the structure's counts, sum to within 5% of the live heap the prefill
// added. A layout change that moves a node to another size class without
// updating the split fails here.
func TestT6AttributesHeap(t *testing.T) {
	s := measureSpace(32, 1<<14)
	sum := s.data + s.tower + s.prefix + s.bucket
	if math.Abs(sum-s.heap) > 0.05*s.heap {
		t.Fatalf("attributed %.0f B (data %.0f, tower %.0f, prefix %.0f, bucket %.0f), measured heap %.0f B: off by more than 5%%",
			sum, s.data, s.tower, s.prefix, s.bucket, s.heap)
	}
}

// TestT6DividesByInsertedKeys pins T6's per-key denominator: where m
// exceeds the 2^(W−1) keys workload.SpreadKeys can place, the row counts
// the keys actually inserted, so a tower still averages about 2 nodes.
func TestT6DividesByInsertedKeys(t *testing.T) {
	res := T6Space(Scale{M: 1 << 16})
	for _, row := range res.Rows {
		if row[0] != "16" {
			continue
		}
		if row[1] != "16384" && row[1] != "32768" {
			t.Errorf("W=16 row counts m=%s keys, want the keys inserted (at most 32768)", row[1])
		}
		if nodes, _ := strconv.ParseFloat(row[2], 64); nodes < 1.8 || nodes > 2.2 {
			t.Errorf("W=16 m=%s: %.2f tower nodes/key, want about 2", row[1], nodes)
		}
	}
}
