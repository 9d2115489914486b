package skiptrie

import (
	"sync"
	"testing"
)

// TestMapZeroValueStructs stores zero-valued struct values — which the old
// boxed path (cast(nil) -> zero) could not distinguish from "absent" — and
// checks presence is reported independently of the value being zero.
func TestMapZeroValueStructs(t *testing.T) {
	type pair struct{ A, B int }
	m := MustNewMap[pair](WithWidth(16))
	m.Store(7, pair{})
	got, ok := m.Load(7)
	if !ok {
		t.Fatal("Load(7) reported absent for a stored zero value")
	}
	if got != (pair{}) {
		t.Fatalf("Load(7) = %+v, want zero pair", got)
	}
	// LoadOrStore must load the existing zero value, not store.
	if v, loaded := m.LoadOrStore(7, pair{A: 1}); !loaded || v != (pair{}) {
		t.Fatalf("LoadOrStore(7) = %+v, %v", v, loaded)
	}
	// Overwrite zero -> nonzero -> zero round-trips.
	m.Store(7, pair{A: 3, B: 4})
	if v, _ := m.Load(7); v != (pair{A: 3, B: 4}) {
		t.Fatalf("Load after overwrite = %+v", v)
	}
	m.Store(7, pair{})
	if v, ok := m.Load(7); !ok || v != (pair{}) {
		t.Fatalf("Load after zeroing = %+v, %v", v, ok)
	}
}

// TestMapNilPointerValues stores nil pointers, which the old any-boxed path
// papered over (a nil any was returned as the zero V whether or not the key
// existed).
func TestMapNilPointerValues(t *testing.T) {
	m := MustNewMap[*int](WithWidth(16))
	m.Store(1, nil)
	v, ok := m.Load(1)
	if !ok {
		t.Fatal("Load(1) reported absent for a stored nil pointer")
	}
	if v != nil {
		t.Fatalf("Load(1) = %v, want nil", v)
	}
	// LoadOrStore on the nil-valued key loads nil rather than storing.
	x := 42
	if got, loaded := m.LoadOrStore(1, &x); !loaded || got != nil {
		t.Fatalf("LoadOrStore(1) = %v, %v; want nil, true", got, loaded)
	}
	// nil -> non-nil -> nil overwrites in place.
	m.Store(1, &x)
	if got, _ := m.Load(1); got != &x {
		t.Fatal("pointer overwrite failed")
	}
	m.Store(1, nil)
	if got, ok := m.Load(1); !ok || got != nil {
		t.Fatalf("Load after nil overwrite = %v, %v", got, ok)
	}
	// Predecessor/Successor surface nil values with ok=true too.
	if k, got, ok := m.Predecessor(5); !ok || k != 1 || got != nil {
		t.Fatalf("Predecessor(5) = %d, %v, %v", k, got, ok)
	}
}

// TestMapStoreUpdateNoAllocs locks in the tentpole's allocation win: with
// unboxed values, overwriting an existing key allocates nothing, and
// neither does Load.
func TestMapStoreUpdateNoAllocs(t *testing.T) {
	m := MustNewMap[uint64](WithWidth(32))
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i) * 16_411
		m.Store(keys[i], 0)
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		k := keys[i%len(keys)]
		m.Store(k, uint64(i))
		i++
	}); avg != 0 {
		t.Fatalf("Store on existing key allocates %.2f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		k := keys[i%len(keys)]
		if _, ok := m.Load(k); !ok {
			t.Fatal("key vanished")
		}
		i++
	}); avg != 0 {
		t.Fatalf("Load allocates %.2f objects/op, want 0", avg)
	}
}

// TestKeysSingleAlloc locks in Keys()'s preallocation: with the result
// slice sized from Len() up front, a full snapshot costs exactly one
// allocation (the slice itself) no matter how many keys it copies —
// growing from nil would cost O(log n) progressively larger ones.
func TestKeysSingleAlloc(t *testing.T) {
	st := MustNew(WithWidth(32))
	for i := uint64(0); i < 4096; i++ {
		st.Insert(i * 1_048_583)
	}
	n := st.Len()
	if avg := testing.AllocsPerRun(20, func() {
		if got := st.Keys(); len(got) != n {
			t.Fatalf("Keys returned %d keys, want %d", len(got), n)
		}
	}); avg > 1 {
		t.Fatalf("Keys allocates %.2f objects/run, want 1", avg)
	}
	// The sharded snapshot keeps the same guarantee: the cursor holds
	// one shard's cursor at a time by value, so the keys slice is the
	// only allocation, whatever the shard count.
	sh := MustNewSharded[struct{}](WithWidth(32), WithShards(4))
	for i := uint64(0); i < 1024; i++ {
		sh.Store(i*4_194_301, struct{}{})
	}
	n = sh.Len()
	if avg := testing.AllocsPerRun(20, func() {
		if got := sh.Keys(); len(got) != n {
			t.Fatalf("Sharded.Keys returned %d keys, want %d", len(got), n)
		}
	}); avg > 1 {
		t.Fatalf("Sharded.Keys allocates %.2f objects/run, want 1", avg)
	}
}

// TestMapConcurrentStoreDeleteLoadOrStore races Store, Delete, LoadOrStore
// and Load over a small hot key set with multi-word values. Run under
// -race this checks the value slot's synchronization; the assertion checks
// that no torn value is ever observed (all four words must agree).
func TestMapConcurrentStoreDeleteLoadOrStore(t *testing.T) {
	type wide [4]uint64
	mk := func(x uint64) wide { return wide{x, x ^ 0xABCD, x * 3, x + 7} }
	valid := func(w wide) bool { return w == mk(w[0]) }

	m := MustNewMap[wide](WithWidth(16))
	const (
		workers = 8
		keys    = 16
		rounds  = 4000
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < rounds; i++ {
				k := (g*31 + i) % keys
				x := g<<32 | i
				switch i % 4 {
				case 0:
					m.Store(k, mk(x))
				case 1:
					if v, _ := m.LoadOrStore(k, mk(x)); !valid(v) {
						t.Errorf("LoadOrStore(%d) observed torn value %v", k, v)
						return
					}
				case 2:
					m.Delete(k)
				default:
					if v, ok := m.Load(k); ok && !valid(v) {
						t.Errorf("Load(%d) observed torn value %v", k, v)
						return
					}
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
