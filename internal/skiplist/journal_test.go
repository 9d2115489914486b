package skiplist

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"skiptrie/internal/uintbits"
)

// TestJournalRecordsWindowedCommits: every kind of stamping commit
// (insert, overwrite, delete) under a live pin lands in the journal,
// and ChangedKeys reports exactly the keys touched in the window.
func TestJournalRecordsWindowedCommits(t *testing.T) {
	l := newEpochList(t)
	for _, k := range []uint64{10, 20, 30, 40} {
		l.Insert(k, k, nil, nil)
	}
	a := l.PinEpoch()
	defer l.ReleaseEpoch(a)

	l.Insert(50, 50, nil, nil)   // insert
	l.Upsert(20, 2000, nil, nil) // overwrite
	l.Delete(30, nil, nil)       // delete
	l.Insert(60, 60, nil, nil)   // insert then delete: still journaled
	l.Delete(60, nil, nil)

	b := l.PinEpoch()
	defer l.ReleaseEpoch(b)

	got := l.ChangedKeys(a, b)
	want := []uint64{20, 30, 50, 60}
	if !slices.Equal(got, want) {
		t.Fatalf("ChangedKeys(%d, %d) = %v, want %v", a, b, got, want)
	}
	// The pre-pin inserts must not appear in any window starting at a.
	if got := l.ChangedKeys(b, b); got != nil {
		t.Fatalf("empty window yielded %v", got)
	}
}

// TestJournalUnpinnedCommitsNotRecorded: without a live pin the gate
// skips the journal entirely, so an unpinned workload stays journal-free.
func TestJournalUnpinnedCommitsNotRecorded(t *testing.T) {
	l := newEpochList(t)
	for k := uint64(0); k < 1000; k++ {
		l.Insert(k, k, nil, nil)
		if k%3 == 0 {
			l.Delete(k, nil, nil)
		}
	}
	if n := l.JournalSegments(); n != 0 {
		t.Fatalf("unpinned workload left %d journal segments, want 0", n)
	}
}

// TestJournalTruncation: entries below the pin horizon are dropped once
// the horizon moves; a pin-free list returns to (near-)empty journal.
func TestJournalTruncation(t *testing.T) {
	l := newEpochList(t)
	p := l.PinEpoch()
	for k := uint64(0); k < 10*jsegCap; k++ {
		l.Insert(k, k, nil, nil)
	}
	if n := l.JournalSegments(); n == 0 {
		t.Fatal("pinned workload journaled nothing")
	}
	l.ReleaseEpoch(p)
	// Each stripe may keep its unsealed tail segment; everything sealed
	// must be gone.
	if n := l.JournalSegments(); n > journalStripes {
		t.Fatalf("after release %d segments remain, want <= %d", n, journalStripes)
	}
}

// TestJournalValueStampAt: the stamp pairs each visible value with the
// epoch it became current, across overwrites and the version chain.
func TestJournalValueStampAt(t *testing.T) {
	l := newEpochList(t)
	res := l.Insert(7, 100, nil, nil)
	born := rootOf(res.Root).born
	a := l.PinEpoch()
	l.Upsert(7, 200, nil, nil)
	b := l.PinEpoch()
	defer l.ReleaseEpoch(a)
	defer l.ReleaseEpoch(b)

	if v, from := l.ValueStampAt(res.Root, a); v != 100 || from != born {
		t.Fatalf("at a: (%d, %d), want (100, %d)", v, from, born)
	}
	if v, from := l.ValueStampAt(res.Root, b); v != 200 || from <= a {
		t.Fatalf("at b: (%d, %d), want (200, >a=%d)", v, from, a)
	}
}

// TestJournalConcurrent: concurrent writers against a live pin, then a
// second pin; ChangedKeys must cover every key whose state or value
// differs between the two views (cross-checked against the views
// themselves) and contain no key outside the touched set.
func TestJournalConcurrent(t *testing.T) {
	l := New[uint64](Config{Levels: uintbits.Levels(20), Seed: 99})
	const base = 1 << 12
	for k := uint64(0); k < base; k++ {
		l.Insert(k, k, nil, nil)
	}
	a := l.PinEpoch()

	const writers = 8
	var wg sync.WaitGroup
	touched := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 7))
			for i := 0; i < 2000; i++ {
				k := r.Uint64N(2 * base)
				touched[w] = append(touched[w], k)
				switch r.IntN(3) {
				case 0:
					l.Insert(k, k+1, nil, nil)
				case 1:
					l.Upsert(k, r.Uint64(), nil, nil)
				default:
					l.Delete(k, nil, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	b := l.PinEpoch()
	defer l.ReleaseEpoch(a)
	defer l.ReleaseEpoch(b)

	changed := l.ChangedKeys(a, b)
	if !slices.IsSorted(changed) {
		t.Fatal("ChangedKeys not sorted")
	}
	inChanged := make(map[uint64]bool, len(changed))
	for _, k := range changed {
		inChanged[k] = true
	}
	allTouched := make(map[uint64]bool)
	for _, ks := range touched {
		for _, k := range ks {
			allTouched[k] = true
		}
	}
	// No key outside the touched set may appear.
	for _, k := range changed {
		if !allTouched[k] {
			t.Fatalf("ChangedKeys reported untouched key %d", k)
		}
	}
	// Every key whose two pinned views differ must appear. (Touched keys
	// whose ops all lost races or round-tripped may or may not appear —
	// at-least-once, filtered by the resolution pass.)
	for k := range allTouched {
		va, oka := visibleValue(l, k, a)
		vb, okb := visibleValue(l, k, b)
		if (oka != okb || (oka && va != vb)) && !inChanged[k] {
			t.Fatalf("key %d differs between views (a: %v %d, b: %v %d) but is not in ChangedKeys",
				k, oka, va, okb, vb)
		}
	}
}

// visibleValue resolves key's visible node and value at epoch at.
func visibleValue(l *List[uint64], k, at uint64) (uint64, bool) {
	br := l.PredecessorBracket(k, nil, nil)
	n, ok := l.FindVisible(br.Right, k, at, nil)
	if !ok {
		return 0, false
	}
	return l.ValueAt(n, at), true
}
