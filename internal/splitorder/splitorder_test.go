package splitorder

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// set returns an Insert initializer that stores v.
func set[V any](v V) func(*V) { return func(p *V) { *p = v } }

func TestEmptyLookup(t *testing.T) {
	m := New[int]()
	if m.Lookup(42) != nil {
		t.Fatal("lookup on empty map succeeded")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestInsertLookupDelete(t *testing.T) {
	m := New[string]()
	if !m.Insert(1, set("one")) {
		t.Fatal("insert failed")
	}
	if m.Insert(1, func(*string) { t.Fatal("duplicate insert initialized a value") }) {
		t.Fatal("duplicate insert succeeded")
	}
	v := m.Lookup(1)
	if v == nil || *v != "one" {
		t.Fatalf("lookup = %v", v)
	}
	if got := m.Delete(1); got != v || *got != "one" {
		t.Fatalf("delete = %v, want the looked-up address %p", got, v)
	}
	if m.Lookup(1) != nil {
		t.Fatal("lookup after delete succeeded")
	}
	if m.Delete(1) != nil {
		t.Fatal("second delete succeeded")
	}
}

func TestZeroKeyAndMaxKey(t *testing.T) {
	m := New[int]()
	for _, k := range []uint64{0, ^uint64(0), 1, 1 << 63} {
		if !m.Insert(k, set(int(k%97))) {
			t.Fatalf("insert %x failed", k)
		}
	}
	for _, k := range []uint64{0, ^uint64(0), 1, 1 << 63} {
		v := m.Lookup(k)
		if v == nil || *v != int(k%97) {
			t.Fatalf("lookup %x = %v", k, v)
		}
	}
}

func TestManyKeysWithResize(t *testing.T) {
	m := New[uint64]()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		if !m.Insert(i, set(i*i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	if m.Buckets() <= initialBuckets {
		t.Fatalf("table never grew: %d buckets", m.Buckets())
	}
	for i := uint64(0); i < n; i++ {
		v := m.Lookup(i)
		if v == nil || *v != i*i {
			t.Fatalf("lookup %d = %v", i, v)
		}
	}
	// Delete the odd half, verify the even half intact.
	for i := uint64(1); i < n; i += 2 {
		if m.Delete(i) == nil {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		ok := m.Lookup(i) != nil
		if want := i%2 == 0; ok != want {
			t.Fatalf("lookup %d = %v, want %v", i, ok, want)
		}
	}
	if m.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", m.Len(), n/2)
	}
}

func TestCompareAndDelete(t *testing.T) {
	m := New[int]()
	m.Insert(5, set(1))
	a := m.Lookup(5)
	// b holds an equal value at another address: identity is the address.
	b := new(int)
	*b = *a
	if m.CompareAndDelete(5, b) || m.CompareAndDelete(5, nil) {
		t.Fatal("CompareAndDelete with wrong address succeeded")
	}
	if m.Lookup(5) != a {
		t.Fatal("entry vanished after failed CompareAndDelete")
	}
	if !m.CompareAndDelete(5, a) {
		t.Fatal("CompareAndDelete with right address failed")
	}
	if m.Lookup(5) != nil {
		t.Fatal("entry survived CompareAndDelete")
	}
	if m.CompareAndDelete(5, a) {
		t.Fatal("CompareAndDelete of absent key succeeded")
	}
}

func TestCompareAndDeleteVsReinsert(t *testing.T) {
	// The SkipTrie pattern: delete entry a, reinsert the same key with an
	// equal value as entry b; a stale CompareAndDelete(key, a) must NOT
	// remove b.
	m := New[int]()
	m.Insert(9, set(1))
	a := m.Lookup(9)
	m.Delete(9)
	m.Insert(9, set(1))
	b := m.Lookup(9)
	if a == b {
		t.Fatal("reinsert reused the deleted entry's address")
	}
	if m.CompareAndDelete(9, a) {
		t.Fatal("stale CompareAndDelete removed the new incarnation")
	}
	if m.Lookup(9) != b {
		t.Fatal("new incarnation lost")
	}
}

func TestRange(t *testing.T) {
	m := New[uint64]()
	want := map[uint64]uint64{}
	for i := uint64(0); i < 500; i++ {
		k := i * 2654435761
		m.Insert(k, set(i))
		want[k] = i
	}
	got := map[uint64]uint64{}
	m.Range(func(k uint64, v *uint64) bool {
		if v != m.Lookup(k) {
			t.Fatalf("Range[%d] yielded %p, Lookup %p", k, v, m.Lookup(k))
		}
		got[k] = *v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d items, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	m := New[int]()
	for i := uint64(0); i < 100; i++ {
		m.Insert(i, set(1))
	}
	n := 0
	m.Range(func(uint64, *int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("Range visited %d, want 10", n)
	}
}

// --- split-order code properties ---

func TestSentinelCodesEvenRegularOdd(t *testing.T) {
	f := func(key, b uint64) bool {
		b &= 1<<40 - 1 // realistic bucket range
		return regularCode(hash63(key))&1 == 1 && sentinelCode(b)&1 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSentinelPrecedesBucketItems(t *testing.T) {
	// For any table size 2^i and any key hashing to bucket b, sentinel(b)
	// sorts before the key's regular code, and sentinel(b') for the other
	// half of a future split sorts after or before consistently.
	f := func(key uint64, szLog uint8) bool {
		i := uint64(szLog%20 + 1)
		size := uint64(1) << i
		h := hash63(key)
		b := h & (size - 1)
		return sentinelCode(b) <= regularCode(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitKeepsRunsContiguous(t *testing.T) {
	// When bucket b splits into b and b+size, items ordered by code must
	// place all of (b+size)'s items in one contiguous run after its new
	// sentinel and before the next sentinel. We verify the defining
	// property: code ordering groups items by their low bits, finest last.
	rng := rand.New(rand.NewSource(7))
	const size = 8
	var items []codedItem
	for n := 0; n < 2000; n++ {
		h := hash63(rng.Uint64())
		items = append(items, codedItem{regularCode(h), h & (2*size - 1)})
	}
	for b := uint64(0); b < 2*size; b++ {
		items = append(items, codedItem{sentinelCode(b), b})
	}
	sortByCode(items)
	// Scan: after sentinel for bucket x (over modulus 2*size), every regular
	// item until the next sentinel must map to bucket x.
	curr := uint64(0)
	for _, it := range items {
		if it.code&1 == 0 {
			curr = it.b
			continue
		}
		if it.b != curr {
			t.Fatalf("item with bucket %d found in run of sentinel %d", it.b, curr)
		}
	}
}

type codedItem struct {
	code uint64
	b    uint64
}

func sortByCode(items []codedItem) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].code < items[j-1].code; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func TestParentBucket(t *testing.T) {
	tests := []struct{ b, want uint64 }{
		{1, 0}, {2, 0}, {3, 1}, {4, 0}, {5, 1}, {6, 2}, {7, 3}, {12, 4},
	}
	for _, tc := range tests {
		if got := parentBucket(tc.b); got != tc.want {
			t.Errorf("parentBucket(%d) = %d, want %d", tc.b, got, tc.want)
		}
	}
	// Parent always has strictly fewer bits.
	f := func(b uint64) bool {
		if b == 0 {
			return true
		}
		return bits.Len64(parentBucket(b)) < bits.Len64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- concurrency ---

func TestConcurrentDisjointInserts(t *testing.T) {
	m := New[uint64]()
	const (
		workers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				k := g*perG + i
				if !m.Insert(k, set(k+1)) {
					t.Errorf("insert %d failed", k)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if m.Len() != workers*perG {
		t.Fatalf("Len = %d, want %d", m.Len(), workers*perG)
	}
	for k := uint64(0); k < workers*perG; k++ {
		v := m.Lookup(k)
		if v == nil || *v != k+1 {
			t.Fatalf("lookup %d = %v", k, v)
		}
	}
}

func TestConcurrentInsertDeleteSameKeys(t *testing.T) {
	// All workers fight over the same small key set; exactly one insert per
	// key may succeed per "generation". Verify counts stay consistent.
	m := New[int]()
	const keys = 16
	const workers = 8
	const rounds = 3000
	var wg sync.WaitGroup
	inserted := make([]int64, keys)
	deleted := make([]int64, keys)
	var mu sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			localIns := make([]int64, keys)
			localDel := make([]int64, keys)
			for r := 0; r < rounds; r++ {
				k := uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					if m.Insert(k, set(1)) {
						localIns[k]++
					}
				} else {
					if m.Delete(k) != nil {
						localDel[k]++
					}
				}
			}
			mu.Lock()
			for i := range localIns {
				inserted[i] += localIns[i]
				deleted[i] += localDel[i]
			}
			mu.Unlock()
		}(int64(g + 1))
	}
	wg.Wait()
	total := 0
	for k := 0; k < keys; k++ {
		present := m.Lookup(uint64(k)) != nil
		wantPresent := inserted[k]-deleted[k] == 1
		if inserted[k]-deleted[k] != 0 && inserted[k]-deleted[k] != 1 {
			t.Fatalf("key %d: %d inserts vs %d deletes", k, inserted[k], deleted[k])
		}
		if present != wantPresent {
			t.Fatalf("key %d: present=%v, want %v", k, present, wantPresent)
		}
		if present {
			total++
		}
	}
	if m.Len() != total {
		t.Fatalf("Len = %d, want %d", m.Len(), total)
	}
}

func TestConcurrentCompareAndDelete(t *testing.T) {
	// N workers race to CompareAndDelete the same (key, value address);
	// exactly one must win per round.
	m := New[int]()
	const rounds = 500
	const workers = 6
	for r := 0; r < rounds; r++ {
		m.Insert(7, set(r))
		v := m.Lookup(7)
		var wins int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if m.CompareAndDelete(7, v) {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if wins != 1 {
			t.Fatalf("round %d: %d winners", r, wins)
		}
	}
}

func TestConcurrentLookupDuringChurn(t *testing.T) {
	m := New[uint64]()
	const stable = 512
	for i := uint64(0); i < stable; i++ {
		m.Insert(i, set(i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churners on a disjoint key range.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := stable + uint64(rng.Intn(1024))
				if rng.Intn(2) == 0 {
					m.Insert(k, set(k))
				} else {
					m.Delete(k)
				}
			}
		}(int64(g))
	}
	// Readers must always see the stable range.
	for round := 0; round < 50; round++ {
		for i := uint64(0); i < stable; i++ {
			if v := m.Lookup(i); v == nil || *v != i {
				close(stop)
				t.Fatalf("stable key %d lost during churn", i)
			}
		}
	}
	close(stop)
	wg.Wait()
}
