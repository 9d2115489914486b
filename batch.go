package skiptrie

import "sort"

// sortBatch returns keys and vals reordered into ascending key order.
// Runs that are already sorted (the common bulk-load case) are returned
// as-is with no allocation; otherwise the reorder is a stable sort on an
// index permutation, so duplicate keys keep their caller-supplied order
// and last-wins semantics survive the shuffle. The inputs are never
// mutated.
func sortBatch[V any](keys []uint64, vals []V) ([]uint64, []V) {
	if sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		return keys, vals
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	sk := make([]uint64, len(keys))
	sv := make([]V, len(vals))
	for out, in := range idx {
		sk[out] = keys[in]
		sv[out] = vals[in]
	}
	return sk, sv
}

// StoreBatch stores vals[i] under keys[i] for every i, equivalent to
// calling Store per pair but amortizing the descent cost: the run is
// sorted once and each insert resumes its skiplist search from the
// previous key's position, so a sorted (or nearly sorted) run touches
// each level-0 region once instead of descending from the head per key.
// On a Sharded the sorted run is additionally grouped by shard through
// the routing table, so each shard's latch is taken once per chunk of
// consecutive keys rather than once per key.
//
// Semantics match per-key Store exactly: each key's write is individually
// linearizable, duplicate keys resolve last-wins in slice order, and keys
// outside the universe are skipped. The batch as a whole is NOT atomic —
// a concurrent reader may observe any prefix-free subset of the writes
// mid-batch. StoreBatch panics if the slices differ in length.
func (e *engine[V]) StoreBatch(keys []uint64, vals []V) {
	if len(keys) != len(vals) {
		panic("skiptrie: StoreBatch length mismatch")
	}
	if len(keys) == 0 {
		return
	}
	t := e.m.latStart()
	sk, sv := sortBatch(keys, vals)
	c := e.m.op()
	e.t.StoreBatch(sk, sv, c)
	e.m.recordN(OpInsert, uint64(len(keys)), c)
	e.m.recordLatencyN(OpInsert, len(keys), t)
}

// AddBatch inserts every key in keys and returns how many were newly
// added, amortizing descents exactly as Map.StoreBatch does. Duplicate
// and already-present keys count zero; out-of-universe keys are skipped.
// The batch is not atomic; each key's insert is individually
// linearizable.
func (s *SkipTrie) AddBatch(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	m := s.e.m
	t := m.latStart()
	// A slice of zero-size values allocates nothing.
	sk, sv := sortBatch(keys, make([]struct{}, len(keys)))
	c := m.op()
	n := s.e.t.StoreBatch(sk, sv, c)
	m.recordN(OpInsert, uint64(len(keys)), c)
	m.recordLatencyN(OpInsert, len(keys), t)
	return n
}
