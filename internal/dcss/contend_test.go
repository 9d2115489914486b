package dcss

import (
	"sync"
	"testing"
)

// TestDCSSExactlyOneWinner: N goroutines all DCSS the same witnessed value
// with valid guards; exactly one must succeed per round.
func TestDCSSExactlyOneWinner(t *testing.T) {
	var x Atom[int]
	var g Atom[bool]
	g.Store(true)
	_, gw := g.Load()
	const rounds = 300
	const workers = 6
	for r := 0; r < rounds; r++ {
		x.Store(r)
		_, w := x.Load()
		var wins int
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, ok := x.DCSS(w, 1000+i, func() bool { return holds(&g, gw) }); ok {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}(i)
		}
		wg.Wait()
		if wins != 1 {
			t.Fatalf("round %d: %d winners", r, wins)
		}
		if v := x.Value(); v < 1000 {
			t.Fatalf("round %d: x = %d, no DCSS landed", r, v)
		}
	}
}

// TestDCSSAllFailWhenGuardDead: with the guard invalidated first, every
// DCSS must fail and the value must remain untouched.
func TestDCSSAllFailWhenGuardDead(t *testing.T) {
	var x Atom[int]
	var g Atom[bool]
	g.Store(true)
	_, gw := g.Load()
	g.CompareAndSwap(gw, false) // invalidate

	x.Store(7)
	_, w := x.Load()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, ok := x.DCSS(w, 100+i, func() bool { return holds(&g, gw) }); ok {
				t.Errorf("DCSS with dead guard succeeded")
			}
		}(i)
	}
	wg.Wait()
	if got := x.Value(); got != 7 {
		t.Fatalf("x = %d, want 7 untouched", got)
	}
	// The original witness is still installable: the atom was fully
	// restored by every failed descriptor.
	if _, ok := x.CompareAndSwap(w, 8); !ok {
		t.Fatal("witness not restored after failed DCSS storm")
	}
}

// TestMixedCASAndDCSSContention interleaves plain CAS writers with DCSS
// writers on one atom; the atom must never lose an update (total
// successful writes == observed final count via per-writer tallies).
func TestMixedCASAndDCSSContention(t *testing.T) {
	var x Atom[int]
	var alive Atom[bool]
	alive.Store(true)
	_, aw := alive.Load()

	const workers = 8
	const perG = 3000
	var wg sync.WaitGroup
	var mu sync.Mutex
	wins := 0
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local := 0
			for n := 0; n < perG; n++ {
				v, w := x.Load()
				var ok bool
				if i%2 == 0 {
					_, ok = x.CompareAndSwap(w, v+1)
				} else {
					_, ok = x.DCSS(w, v+1, func() bool { return holds(&alive, aw) })
				}
				if ok {
					local++
				}
			}
			mu.Lock()
			wins += local
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if got := x.Value(); got != wins {
		t.Fatalf("x = %d but %d successful writes", got, wins)
	}
}
