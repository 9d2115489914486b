package splitorder

import (
	"sync"
	"testing"
)

// TestConcurrentBucketInitialization hits a fresh (fully grown) table from
// many goroutines at once so sentinel splicing races on every lookup path:
// each parent chain must be initialized exactly once and reads must never
// miss.
func TestConcurrentBucketInitialization(t *testing.T) {
	m := New[uint64]()
	// Grow the table first so lookups spread across many uninitialized
	// buckets.
	const n = 20000
	for i := uint64(0); i < n; i++ {
		m.Insert(i, set(i))
	}
	// Fresh map with the same content but grown lazily under concurrency:
	m2 := New[uint64]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				if !m2.Insert(i, set(i)) {
					t.Errorf("insert %d failed", i)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	// Concurrent cold reads against yet-unsplit buckets.
	var rg sync.WaitGroup
	for g := 0; g < 8; g++ {
		rg.Add(1)
		go func(g uint64) {
			defer rg.Done()
			for i := g; i < n; i += 8 {
				if v := m2.Lookup(i); v == nil || *v != i {
					t.Errorf("lookup %d = %v", i, v)
					return
				}
			}
		}(uint64(g))
	}
	rg.Wait()
	if m2.Len() != n {
		t.Fatalf("Len = %d, want %d", m2.Len(), n)
	}
}

// TestListStaysSortedBySplitOrder verifies the global list invariant after
// heavy growth: live codes are nondecreasing and sentinels partition
// regular nodes correctly. A third of the keys are left logically deleted
// but still linked, as deletes preempted between their marking and
// unlinking CASes leave them: the raw walk must find only those keys'
// next words marked, and Range must not yield them. Lookups of the
// deleted keys then unlink them.
func TestListStaysSortedBySplitOrder(t *testing.T) {
	const n = 5000
	m := New[int]()
	for i := uint64(0); i < n; i++ {
		m.Insert(i*2654435761, set(int(i)))
	}
	gone := map[uint64]bool{}
	for i := uint64(0); i < n; i += 3 {
		k := i * 2654435761
		markOnly(t, m, k)
		gone[k] = true
	}

	walk := func() (live, marked int) {
		var prev uint64
		first := true
		for nd := m.sentinel(0); nd != &m.end; {
			if nd == nil {
				t.Fatal("walk fell off the list before its end node")
			}
			next, isMarked := nd.next.Load()
			if isMarked {
				if nd.code&1 == 0 {
					t.Fatalf("sentinel %d is marked deleted", nd.key)
				}
				if !gone[nd.key] {
					t.Fatalf("live key %x is marked deleted", nd.key)
				}
				marked++
				nd = next
				continue
			}
			if !first && nd.code < prev {
				t.Fatalf("split-order violated: %x after %x", nd.code, prev)
			}
			prev, first = nd.code, false
			if nd.code&1 == 1 {
				if gone[nd.key] {
					t.Fatalf("deleted key %x is linked unmarked", nd.key)
				}
				live++
			}
			nd = next
		}
		return live, marked
	}

	// markOnly's own searches unlink the deleted nodes they pass, so only
	// some of the marked nodes are still linked.
	if live, marked := walk(); live != n-len(gone) || marked == 0 || marked > len(gone) {
		t.Fatalf("walked %d live and %d marked nodes, want %d and 1..%d", live, marked, n-len(gone), len(gone))
	}
	ranged := 0
	m.Range(func(k uint64, v *int) bool {
		if gone[k] {
			t.Fatalf("Range yielded deleted key %x", k)
		}
		if want := int(k / 2654435761); *v != want {
			t.Fatalf("Range yielded %x -> %d, want %d", k, *v, want)
		}
		ranged++
		return true
	})
	if ranged != n-len(gone) || m.Len() != ranged {
		t.Fatalf("Range yielded %d keys, Len = %d, want %d", ranged, m.Len(), n-len(gone))
	}

	for k := range gone {
		if m.Lookup(k) != nil {
			t.Fatalf("lookup of deleted key %x succeeded", k)
		}
	}
	if live, marked := walk(); live != n-len(gone) || marked != 0 {
		t.Fatalf("after lookups walked %d live and %d marked nodes, want %d and 0", live, marked, n-len(gone))
	}
}

// markOnly logically deletes key exactly as deleteIf does but skips the
// physical unlink, leaving it to later searches.
func markOnly(t *testing.T, m *Map[int], key uint64) {
	t.Helper()
	h := hash63(key)
	code := regularCode(h)
	_, curr := m.search(m.sentinel(h&(m.size.Load()-1)), code, key)
	if curr.code != code || curr.key != key {
		t.Fatalf("key %x not found", key)
	}
	next, marked := curr.next.Load()
	if marked || !curr.next.Mark(next) {
		t.Fatalf("key %x: marking failed", key)
	}
	m.count.Add(-1)
}

// TestInsertDeleteAllocs pins the allocation cost of the mark-bit links
// and of in-place values: a fresh Insert allocates only its node, value
// included, and a Delete nothing. Every bucket's
// sentinel is spliced in beforehand and the table holds far fewer items
// than its growth threshold, so lazy bucket initialization stays out of
// the measurement.
func TestInsertDeleteAllocs(t *testing.T) {
	const runs = 1000
	m := New[int]()
	one := func(v *int) { *v = 1 }
	for i := uint64(0); i < 4*runs; i++ {
		m.Insert(i, one)
	}
	for i := uint64(0); i < 4*runs; i++ {
		m.Delete(i)
	}
	for b := 0; b < m.Buckets(); b++ {
		m.sentinel(uint64(b))
	}
	next := uint64(1 << 32)
	if got := testing.AllocsPerRun(runs, func() {
		m.Insert(next, one)
		next++
	}); got != 1 {
		t.Fatalf("fresh Insert allocates %v objects, want 1", got)
	}
	next = 1 << 32
	if got := testing.AllocsPerRun(runs, func() {
		m.Delete(next)
		next++
	}); got != 0 {
		t.Fatalf("Delete allocates %v objects, want 0", got)
	}
}
