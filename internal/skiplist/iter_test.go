package skiplist

import (
	"math/rand"
	"sync"
	"testing"
)

// iterList builds a list over the given keys (value = key*10) with
// randomized tower heights.
func iterList(t *testing.T, keys []uint64) *List[uint64] {
	t.Helper()
	l := New[uint64](Config{Levels: 4, Seed: 77})
	for _, k := range keys {
		if res := l.Insert(k, k*10, nil, nil); !res.Inserted {
			t.Fatalf("Insert(%d) not inserted", k)
		}
	}
	return l
}

func collectForward(it *Iter[uint64], c int) (keys []uint64) {
	for ok := it.Valid(); ok && len(keys) < c; ok = it.Next(nil) {
		keys = append(keys, it.Key())
	}
	return keys
}

func TestIterSeekNext(t *testing.T) {
	keys := []uint64{2, 5, 9, 14, 27, 101, 4096}
	l := iterList(t, keys)
	it := l.MakeIter()
	if it.Valid() {
		t.Fatal("fresh cursor claims Valid")
	}
	if !it.SeekGE(0, nil, nil) {
		t.Fatal("SeekGE(0) found nothing")
	}
	if got := collectForward(&it, 100); !equalU64(got, keys) {
		t.Fatalf("forward walk = %v, want %v", got, keys)
	}
	if it.Valid() {
		t.Fatal("cursor Valid after exhaustion")
	}
	if it.Next(nil) {
		t.Fatal("Next on exhausted cursor succeeded")
	}

	// Seeks land on the exact key or its successor.
	for _, tc := range []struct {
		seek uint64
		want uint64
		ok   bool
	}{
		{0, 2, true}, {2, 2, true}, {3, 5, true}, {14, 14, true},
		{15, 27, true}, {4096, 4096, true}, {4097, 0, false},
	} {
		ok := it.SeekGE(tc.seek, nil, nil)
		if ok != tc.ok {
			t.Fatalf("SeekGE(%d) = %v, want %v", tc.seek, ok, tc.ok)
		}
		if ok && it.Key() != tc.want {
			t.Fatalf("SeekGE(%d) landed on %d, want %d", tc.seek, it.Key(), tc.want)
		}
		if ok && it.Value() != tc.want*10 {
			t.Fatalf("SeekGE(%d) value = %d, want %d", tc.seek, it.Value(), tc.want*10)
		}
	}
}

func TestIterSeekLEPrev(t *testing.T) {
	keys := []uint64{2, 5, 9, 14, 27}
	l := iterList(t, keys)
	it := l.MakeIter()
	for _, tc := range []struct {
		seek uint64
		want uint64
		ok   bool
	}{
		{1, 0, false}, {2, 2, true}, {3, 2, true}, {14, 14, true},
		{1000, 27, true},
	} {
		ok := it.SeekLE(tc.seek, nil, nil)
		if ok != tc.ok {
			t.Fatalf("SeekLE(%d) = %v, want %v", tc.seek, ok, tc.ok)
		}
		if ok && it.Key() != tc.want {
			t.Fatalf("SeekLE(%d) landed on %d, want %d", tc.seek, it.Key(), tc.want)
		}
	}

	// Walk everything backward from the top.
	if !it.SeekLast(nil, nil) {
		t.Fatal("SeekLast found nothing")
	}
	var back []uint64
	for ok := true; ok; ok = it.Prev(nil, nil) {
		back = append(back, it.Key())
	}
	want := []uint64{27, 14, 9, 5, 2}
	if !equalU64(back, want) {
		t.Fatalf("backward walk = %v, want %v", back, want)
	}
	if it.Valid() || it.Prev(nil, nil) {
		t.Fatal("cursor usable after backward exhaustion")
	}
}

// TestIterResumesAcrossDeletion parks the cursor on a key, deletes that
// key (and its neighbors) underneath it, and checks the cursor resumes
// on the next surviving key: the marked node's frozen succ chain leads
// back into the live list.
func TestIterResumesAcrossDeletion(t *testing.T) {
	keys := []uint64{10, 20, 30, 40, 50}
	l := iterList(t, keys)
	it := l.MakeIter()
	if !it.SeekGE(20, nil, nil) || it.Key() != 20 {
		t.Fatalf("SeekGE(20) landed on %d", it.Key())
	}
	// Delete the node under the cursor plus the next key.
	for _, k := range []uint64{20, 30} {
		if res := l.Delete(k, nil, nil); !res.Deleted {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if !it.Next(nil) {
		t.Fatal("Next after underfoot deletion exhausted the cursor")
	}
	if it.Key() != 40 {
		t.Fatalf("Next after underfoot deletion landed on %d, want 40", it.Key())
	}
	// Same resilience backward: Prev re-searches by key, so deleting
	// the resting node does not strand the cursor.
	if res := l.Delete(40, nil, nil); !res.Deleted {
		t.Fatal("Delete(40) failed")
	}
	if !it.Prev(nil, nil) || it.Key() != 10 {
		t.Fatalf("Prev after underfoot deletion landed on %d, want 10", it.Key())
	}
	CheckInvariants(t, l)
}

// TestIterSeekDeletedKey seeks to a key that is concurrently deleted:
// the cursor must land on the key or a strictly larger one, never on a
// smaller key and never on the deleted key twice.
func TestIterSeekDeletedKey(t *testing.T) {
	l := iterList(t, []uint64{100, 200, 300})
	it := l.MakeIter()
	if res := l.Delete(200, nil, nil); !res.Deleted {
		t.Fatal("Delete(200) failed")
	}
	if !it.SeekGE(200, nil, nil) || it.Key() != 300 {
		t.Fatalf("SeekGE(deleted 200) landed on %d, want 300", it.Key())
	}
	if !it.SeekLE(200, nil, nil) || it.Key() != 100 {
		t.Fatalf("SeekLE(deleted 200) landed on %d, want 100", it.Key())
	}
}

// TestIterConcurrentChurn walks cursors forward and backward while
// writers churn a disjoint middle band, checking strict monotonicity
// and that stable sentinel keys are always reported. Run under -race
// in CI.
func TestIterConcurrentChurn(t *testing.T) {
	l := New[uint64](Config{Levels: 5, Seed: 3})
	// Stable anchors at both ends and every 1000; churn in between.
	var anchors []uint64
	for k := uint64(0); k <= 10_000; k += 1000 {
		anchors = append(anchors, k)
		l.Insert(k, k, nil, nil)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
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
				k := uint64(rng.Intn(10))*1000 + 1 + uint64(rng.Intn(998))
				if rng.Intn(2) == 0 {
					l.Insert(k, k, nil, nil)
				} else {
					l.Delete(k, nil, nil)
				}
			}
		}(int64(g) * 7919)
	}
	for round := 0; round < 50; round++ {
		it := l.MakeIter()
		var got []uint64
		seen := map[uint64]bool{}
		for ok := it.SeekGE(0, nil, nil); ok; ok = it.Next(nil) {
			got = append(got, it.Key())
			seen[it.Key()] = true
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("round %d: forward walk not strictly sorted at %d: %v", round, i, got)
			}
		}
		for _, a := range anchors {
			if !seen[a] {
				t.Fatalf("round %d: walk missed stable anchor %d", round, a)
			}
		}
		// Backward spot-check from a random anchor.
		it2 := l.MakeIter()
		prev := uint64(1 << 62)
		for ok := it2.SeekLE(5000, nil, nil); ok; ok = it2.Prev(nil, nil) {
			if it2.Key() >= prev {
				t.Fatalf("round %d: backward walk yielded %d after %d", round, it2.Key(), prev)
			}
			prev = it2.Key()
		}
	}
	close(stop)
	wg.Wait()
	CheckInvariants(t, l)
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
