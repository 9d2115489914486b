package skiptrie

import "testing"

// Allocation regression tests for the write path. The budgets below pin
// the measured per-op object counts after the pooling work (tower slab +
// discarded-node pool); regressions that add objects per op fail here
// before they show up in benchmarks.

// allocsPerRun is testing.AllocsPerRun with the warm-up the pool needs:
// the first runs populate the sync.Pool and stripe seeds, so we measure
// the steady state.
func allocsPerRun(runs int, f func()) float64 {
	for i := 0; i < 8; i++ {
		f()
	}
	return testing.AllocsPerRun(runs, f)
}

// allocsPerCall measures runs runs of calls calls to f each and returns
// the mean per call. testing.AllocsPerRun truncates its mean to a whole
// number, so a zero-allocation gate that made one call per run would
// read 0 for one allocation every two calls; with calls >= 100, one
// allocation in every 100 calls already shows.
func allocsPerCall(runs, calls int, f func()) float64 {
	return allocsPerRun(runs, func() {
		for i := 0; i < calls; i++ {
			f()
		}
	}) / float64(calls)
}

func TestAllocsFreshInsert(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	var k uint64
	got := allocsPerCall(20, 100, func() {
		m.Store(k, int(k))
		k += 3
	})
	// Seed measured 13.0 objects per fresh insert; the tower slab (one
	// backing array per multi-level tower instead of h-1 node allocs)
	// and the discard pool brought it to 12.0, links that no longer
	// allocate a cell per CAS (marker nodes) to 5.30, and trie nodes held
	// in their hash-table entries to 4.84. Budget 5.34 allows noise while
	// still catching any full-object regression.
	if got > 5.34 {
		t.Fatalf("fresh insert allocates %.2f objects/op, budget 5.34 (seed was 13.0)", got)
	}
}

func TestAllocsStoreExisting(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	for i := uint64(0); i < 1024; i++ {
		m.Store(i, int(i))
	}
	var k uint64
	if got := allocsPerCall(20, 100, func() {
		m.Store(k&1023, 7)
		k++
	}); got != 0 {
		t.Fatalf("Store of existing key allocates %.2f objects/op, want 0", got)
	}
}

func TestAllocsLoad(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	for i := uint64(0); i < 1024; i++ {
		m.Store(i, int(i))
	}
	var k uint64
	if got := allocsPerCall(20, 100, func() {
		m.Load(k & 1023)
		k++
	}); got != 0 {
		t.Fatalf("Load allocates %.2f objects/op, want 0", got)
	}
}

func TestAllocsMeteredLoad(t *testing.T) {
	var met Metrics
	m := MustNewMap[int](WithWidth(32), WithSeed(1), WithMetrics(&met))
	for i := uint64(0); i < 1024; i++ {
		m.Store(i, int(i))
	}
	var k uint64
	// The per-op stats.Op counter must stay stack-allocated even with a
	// collector attached: record only reads it, so it must not escape.
	if got := allocsPerCall(20, 100, func() {
		m.Load(k & 1023)
		k++
	}); got != 0 {
		t.Fatalf("metered Load allocates %.2f objects/op, want 0", got)
	}
}

func TestAllocsStoreBatchPerKey(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	const batch = 256
	keys := make([]uint64, batch)
	vals := make([]int, batch)
	var base uint64
	got := allocsPerRun(50, func() {
		for i := range keys {
			keys[i] = base + uint64(i)*3
			vals[i] = i
		}
		base += batch * 3
		m.StoreBatch(keys, vals)
	})
	// Sorted input takes the zero-copy fast path, so the whole batch's
	// allocations are the fresh inserts themselves: 5.01 per key
	// measured, budget 0.5 above it.
	perKey := got / batch
	if perKey > 5.51 {
		t.Fatalf("StoreBatch allocates %.2f objects per key, budget 5.51", perKey)
	}
}

func TestAllocsStoreBatchExisting(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	const batch = 256
	keys := make([]uint64, batch)
	vals := make([]int, batch)
	for i := range keys {
		keys[i] = uint64(i) * 3
		vals[i] = i
	}
	m.StoreBatch(keys, vals)
	// Re-storing the same sorted run must not allocate at all: no new
	// nodes, no sort copy, no per-key boxing.
	if got := allocsPerCall(4, 100, func() { m.StoreBatch(keys, vals) }); got != 0 {
		t.Fatalf("StoreBatch over existing keys allocates %.2f objects/batch, want 0", got)
	}
}

// TestAllocsScan pins the scan paths' allocation budgets on both forms:
// the cursor concatenates shards with one bucket cursor held by value,
// so a 16-key Range or Descend allocates nothing and a public cursor is
// one object, whatever the shard count.
func TestAllocsScan(t *testing.T) {
	m := MustNewMap[uint64](WithWidth(32), WithSeed(1))
	s := MustNewSharded[uint64](WithWidth(32), WithShards(8), WithSeed(1))
	for i := uint64(0); i < 1<<12; i++ {
		k := i * (1 << 20) // spread over every shard
		m.Store(k, i)
		s.Store(k, i)
	}
	type form struct {
		name    string
		rng     func(uint64, func(uint64, uint64) bool)
		descend func(uint64, func(uint64, uint64) bool)
		iter    func() *Iter[uint64]
	}
	for _, f := range []form{
		{"map", m.Range, m.Descend, m.Iter},
		{"sharded8", s.Range, s.Descend, s.Iter},
	} {
		// The callback is built once, outside the measured runs.
		var from uint64
		n := 0
		visit := func(uint64, uint64) bool { n++; return n < 16 }
		if got := allocsPerRun(200, func() {
			n = 0
			f.rng(from, visit)
			from += 1 << 27
		}); got != 0 {
			t.Errorf("%s: 16-key Range allocates %.1f objects, want 0", f.name, got)
		}
		if got := allocsPerRun(200, func() {
			n = 0
			f.descend(from, visit)
			from += 1 << 27
		}); got != 0 {
			t.Errorf("%s: 16-key Descend allocates %.1f objects, want 0", f.name, got)
		}
		if got := allocsPerRun(200, func() {
			f.iter().Seek(from)
			from += 1 << 27
		}); got > 1 {
			t.Errorf("%s: Iter plus Seek allocates %.1f objects, want at most 1", f.name, got)
		}
	}

	// AddBatch over a sorted run already present: no sort copy, no
	// value slice, no new nodes.
	st := MustNew(WithWidth(32), WithSeed(1))
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	st.AddBatch(keys)
	if got := allocsPerRun(200, func() { st.AddBatch(keys) }); got != 0 {
		t.Errorf("AddBatch over present keys allocates %.1f objects/batch, want 0", got)
	}
}
