package main

import (
	"runtime/debug"

	"skiptrie/internal/core"
	"skiptrie/internal/shard"
	"skiptrie/internal/stats"
)

// The solo replay runs a fixed prefix of worker 0's stream on one
// goroutine against an internal/shard.Trie built exactly like the
// measured structure, with a *stats.Op per call. With no concurrent
// writer its step counts are the program's work for those calls alone;
// it feeds only the per-layer rows marked "solo replay" in README.md.

// replayOps is the length of the replayed prefix, in calls.
const replayOps = 1 << 15

// routeKeys caps the point reads the routing cost is timed over.
const routeKeys = 1 << 12

type replayStats struct {
	calls, steps         uint64 // every replayed call; steps is their stats.Op total
	updates, attempts    uint64 // single-key and batched updates; CAS+DCSS attempts of every call
	touches, touchLevels uint64 // single-key updates that touched the trie, and the levels they crossed
	batchKeys, batchHops uint64 // StoreBatch keys, and the list hops those calls took
	routeNs              float64
}

func (rs replayStats) metrics() map[string]float64 {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"shard.route_ns_per_op":         rs.routeNs,
		"xfast.levels_per_touch":        ratio(rs.touchLevels, rs.touches),
		"skiplist.hops_per_batched_key": ratio(rs.batchHops, rs.batchKeys),
	}
}

// soloAttempts is the replay's CAS+DCSS attempts per update, counted
// the way Metrics counts them: attempts of every call over updates.
func (rs replayStats) soloAttempts() float64 {
	if rs.updates == 0 {
		return 0
	}
	return float64(rs.attempts) / float64(rs.updates)
}

// solo runs a replay with the collector off and the goroutine's stack
// grown in advance. The structure draws tower heights from
// per-goroutine stripes picked by hashing a stack address, so a stack
// that moves mid-replay (grown, or shrunk by a collection) changes the
// draws; holding it still keeps one seed's step counts identical from
// replay to replay on one goroutine.
func solo(replay func() replayStats) replayStats {
	growStack(16)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return replay()
}

// growStack uses about n*64 KiB of stack.
//
//go:noinline
func growStack(n int) byte {
	var pad [64 << 10]byte
	pad[n%len(pad)] = byte(n)
	if n == 0 {
		return pad[0]
	}
	return growStack(n-1) + pad[n%len(pad)]
}

// loadTrie prefills t the way the measured structure was prefilled:
// sorted keys in ascending StoreBatch runs.
func loadTrie[V any](t *shard.Trie[V], keys []uint64, vals []V, run int) {
	for i := 0; i < len(keys); i += run {
		j := min(i+run, len(keys))
		t.StoreBatch(keys[i:j], vals[i:j], nil)
	}
}

// replay runs the prefix. With renewEvery > 0 it holds a snapshot the
// whole time, renewed every renewEvery calls, as write-churn's worker 1
// does during the measured window: a pinned epoch changes what a
// Delete does, so the solo and concurrent attempt counts would not be
// comparable without it.
func replay[V any](t *shard.Trie[V], ops []op, batches []uint64, val func(uint64) V, renewEvery int) replayStats {
	var rs replayStats
	var pin *shard.Snap[V]
	if renewEvery > 0 {
		pin = t.Snapshot()
	}
	var reads []uint64
	bvals := make([]V, batchLen)
	seen := 0
	scan := func(uint64, V) bool { seen++; return seen < scanLen }
	for i := range ops {
		if rs.calls == replayOps {
			break
		}
		o := &ops[i]
		var c stats.Op
		single := false
		switch o.kind {
		case opLoad, opGet:
			t.Find(o.key, &c)
			if len(reads) < routeKeys {
				reads = append(reads, o.key)
			}
		case opPred:
			t.Predecessor(o.key, &c)
		case opSucc:
			t.Successor(o.key, &c)
		case opRange, opScan, opSnapScan:
			seen = 0
			t.Range(o.key, scan, &c)
		case opStore, opSet:
			t.Store(o.key, val(o.key), &c)
			single = true
		case opDelete, opDel:
			t.Delete(o.key, &c)
			single = true
		case opBatch:
			keys := batches[o.aux : o.aux+batchLen]
			for j, k := range keys {
				bvals[j] = val(k)
			}
			t.StoreBatch(keys, bvals, &c)
			rs.batchKeys += batchLen
			rs.batchHops += c.Hops
			rs.updates += batchLen
		default: // maintenance is not replayed
			continue
		}
		rs.calls++
		if pin != nil && rs.calls%uint64(renewEvery) == 0 {
			next := t.Snapshot()
			pin.Close()
			pin = next
		}
		rs.steps += c.Steps()
		if o.kind != opRange && o.kind != opScan && o.kind != opSnapScan {
			rs.attempts += c.CAS + c.DCSS // Metrics records no op for scans
		}
		if single {
			rs.updates++
			if c.TrieTouch {
				rs.touches++
				rs.touchLevels += c.TrieLevels
			}
		}
	}
	if pin != nil {
		pin.Close()
	}
	rs.routeNs = routeCost(t, reads)
	return rs
}

// routeCost times the shard layer's routing step on its own: Shard
// resolves a key to its owning core.SkipTrie through the routing table,
// the same table load and route every shard.Trie point call makes
// before it reaches the core. (Subtracting a direct core call from a
// routed one is hopeless here: a Find costs microseconds and varies by
// far more than the few nanoseconds routing takes.) The median over
// passes of the mean per key is kept.
func routeCost[V any](t *shard.Trie[V], reads []uint64) float64 {
	if len(reads) == 0 {
		return 0
	}
	var sink *core.SkipTrie[V]
	var passes []float64
	for pass := 0; pass < 9; pass++ {
		t0 := nanotime()
		for _, k := range reads {
			sink = t.Shard(k)
		}
		passes = append(passes, float64(nanotime()-t0)/float64(len(reads)))
	}
	routeSink = sink != nil
	return median(passes)
}

// routeSink keeps the timed Shard calls from being optimized away.
var routeSink bool

func replayReadOrdered(seed uint64, in *roInput, vals []uint64) replayStats {
	t := shard.New[uint64](shard.Config{Width: roWidth, Seed: seed})
	loadTrie(t, in.keys, vals, 1024)
	return replay(t, in.ops[0], nil, value, 0)
}

func replayWriteChurn(seed uint64, in *wcInput, prefill, vals []uint64) replayStats {
	t := shard.New[uint64](shard.Config{Width: wcWidth, Shards: wcShards, Seed: seed})
	loadTrie(t, prefill, vals, 1024)
	return replay(t, in.ops[0], in.batches[0], value, in.renewEvery)
}

func replayWireServe(in *wsInput) replayStats {
	t := shard.New[[]byte](shard.Config{})
	vals := make([][]byte, len(in.sorted))
	for i, k := range in.sorted {
		vals[i] = appendWireValue(nil, k)
	}
	loadTrie(t, in.sorted, vals, 64)
	return replay(t, in.ops[0], nil, func(k uint64) []byte { return appendWireValue(nil, k) }, 0)
}
