package skiplist

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"skiptrie/internal/stats"
)

// TestUpsertHintedSortedRun checks a hinted run produces the same
// structure as unhinted inserts, and bounds its cost: on every input the
// hinted run's total hops must not exceed the unhinted run's, and on an
// adjacent ascending run — where the amortization comes from — they
// must come in under it.
func TestUpsertHintedSortedRun(t *testing.T) {
	// spread is a 16-key ascending run over a list populated with the
	// even keys below 2^15: run keys are odd and 300 level-0 nodes apart.
	var fill, spread []uint64
	for i := uint64(0); i < 1<<14; i++ {
		fill = append(fill, 2*i)
	}
	for j := uint64(0); j < 16; j++ {
		spread = append(spread, 600*j+1001)
	}
	descending := make([]uint64, len(spread))
	for i, k := range spread {
		descending[len(spread)-1-i] = k
	}
	adjacent := make([]uint64, 2000)
	for i := range adjacent {
		adjacent[i] = uint64(i) * 3
	}

	for _, tc := range []struct {
		name   string
		levels int
		fill   []uint64
		run    []uint64
		// fewer requires the hinted run to take strictly fewer hops.
		fewer bool
	}{
		{name: "adjacent", levels: 5, run: adjacent, fewer: true},
		// The most levels keep a plain descent from the head short, so
		// walks from stale hints, not the top level, would dominate.
		{name: "spread", levels: MaxLevels, fill: fill, run: spread},
		{name: "descending", levels: MaxLevels, fill: fill, run: descending},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Both lists get the same keys with the same tower heights,
			// so only the descents differ.
			r := rand.New(rand.NewSource(9))
			height := func() int {
				return min(bits.TrailingZeros64(r.Uint64())+1, tc.levels)
			}
			plain := New[int](Config{Levels: tc.levels})
			hinted := New[int](Config{Levels: tc.levels})
			for _, k := range tc.fill {
				h := height()
				plain.UpsertWithHeight(k, -1, nil, h, nil)
				hinted.UpsertWithHeight(k, -1, nil, h, nil)
			}

			var cPlain, cHinted stats.Op
			var hint Hint
			for i, k := range tc.run {
				h := height()
				plain.UpsertWithHeight(k, i, nil, h, &cPlain)
				hinted.UpsertHintedWithHeight(k, i, nil, h, &hint, &cHinted)
			}
			if err := plain.Validate(); err != nil {
				t.Fatalf("plain list invalid: %v", err)
			}
			if err := hinted.Validate(); err != nil {
				t.Fatalf("hinted list invalid: %v", err)
			}
			if got, want := hinted.Len(), plain.Len(); got != want {
				t.Fatalf("hinted len %d, plain len %d", got, want)
			}
			for i, k := range tc.run {
				nd, ok := hinted.Find(k, nil, nil)
				if !ok {
					t.Fatalf("key %d missing from hinted list", k)
				}
				if v := hinted.ValueOf(nd); v != i {
					t.Fatalf("key %d holds %d, want %d", k, v, i)
				}
			}
			if cHinted.Hops > cPlain.Hops {
				t.Fatalf("hinted run took %d hops, unhinted %d", cHinted.Hops, cPlain.Hops)
			}
			if tc.fewer && cHinted.Hops >= cPlain.Hops {
				t.Fatalf("hinted run took %d hops, unhinted %d — no amortization", cHinted.Hops, cPlain.Hops)
			}
			t.Logf("%d keys: hinted %d hops, unhinted %d", len(tc.run), cHinted.Hops, cPlain.Hops)
		})
	}
}

// TestUpsertHintedDuplicatesAndEqualKeys checks hint reuse across
// duplicate keys in a run: the second write must land as an in-place
// overwrite of the first (last-wins), not a second node.
func TestUpsertHintedDuplicatesAndEqualKeys(t *testing.T) {
	l := New[int](Config{Levels: 4})
	var hint Hint
	keys := []uint64{5, 5, 7, 7, 7, 9}
	for i, k := range keys {
		l.UpsertHinted(k, i, nil, &hint, nil)
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("len = %d after duplicate run, want 3", got)
	}
	wants := map[uint64]int{5: 1, 7: 4, 9: 5}
	for k, want := range wants {
		nd, ok := l.Find(k, nil, nil)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if v := l.ValueOf(nd); v != want {
			t.Fatalf("key %d = %d, want %d (last write wins)", k, v, want)
		}
	}
}

// TestUpsertHintedSurvivesConcurrentDeletes hammers hinted runs while
// another goroutine deletes the just-inserted keys out from under the
// hint, forcing the resume path through marked and unlinked hint nodes.
func TestUpsertHintedSurvivesConcurrentDeletes(t *testing.T) {
	l := New[int](Config{Levels: 5})
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var hint Hint
		for i := 0; i < n; i++ {
			l.UpsertHinted(uint64(i), i, nil, &hint, nil)
		}
	}()
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for i := 0; i < n; i++ {
			l.Delete(uint64(r.Intn(n)), nil, nil)
		}
	}()
	wg.Wait()
	if err := l.Validate(); err != nil {
		t.Fatalf("list invalid after hinted run under deletes: %v", err)
	}
}
