package skiplist_test

import (
	"math"
	"sync"
	"testing"

	"skiptrie/internal/skiplist"
)

func newList(seed uint64) *skiplist.List[int] {
	return skiplist.New[int](skiplist.Config{Levels: 6, Seed: seed})
}

// TestRandomHeightSeedDeterminism pins the single-goroutine contract of
// Config.Seed after the RNG striping: two lists with the same seed, fed
// the same key sequence, draw identical heights — even when one of them
// draws every other height from deeper in the stack, since the key, not
// the caller's stack address, picks the stripe.
func TestRandomHeightSeedDeterminism(t *testing.T) {
	a, b := newList(42), newList(42)
	for i := 0; i < 4096; i++ {
		key := uint64(i) * 0x9E3779B97F4A7C15
		ha, hb := a.RandomHeight(key), 0
		if i%2 == 0 {
			hb = b.RandomHeight(key)
		} else {
			atDepth(64, func() { hb = b.RandomHeight(key) })
		}
		if ha != hb {
			t.Fatalf("draw %d: same seed and key diverged: %d vs %d", i, ha, hb)
		}
	}
}

// atDepth calls f d stack frames below its caller.
func atDepth(d int, f func()) {
	if d == 0 {
		f()
		return
	}
	atDepth(d-1, f)
}

// TestRandomHeightSeedVariation checks distinct seeds give distinct
// sequences (the point of seeding at all).
func TestRandomHeightSeedVariation(t *testing.T) {
	a, b := newList(1), newList(2)
	same := true
	for i := 0; i < 256 && same; i++ {
		same = a.RandomHeight(uint64(i)) == b.RandomHeight(uint64(i))
	}
	if same {
		t.Fatal("seeds 1 and 2 drew identical 256-draw sequences")
	}
}

// TestRandomHeightDistribution checks the draws stay Geom(1/2)
// truncated to [1, levels]: P(h) = 2^-h with the remainder on the top.
func TestRandomHeightDistribution(t *testing.T) {
	l := newList(7)
	const n = 1 << 16
	levels := l.Levels()
	counts := make([]int, levels+1)
	for i := 0; i < n; i++ {
		h := l.RandomHeight(uint64(i))
		if h < 1 || h > levels {
			t.Fatalf("height %d outside [1, %d]", h, levels)
		}
		counts[h]++
	}
	for h := 1; h <= levels; h++ {
		want := math.Pow(0.5, float64(h))
		if h == levels {
			want = math.Pow(0.5, float64(levels-1)) // remainder mass
		}
		got := float64(counts[h]) / n
		// 6-sigma band on a binomial proportion.
		tol := 6 * math.Sqrt(want*(1-want)/n)
		if math.Abs(got-want) > tol {
			t.Errorf("P(h=%d) = %.4f, want %.4f +/- %.4f", h, got, want, tol)
		}
	}
}

// TestRandomHeightConcurrent hammers the striped RNG from many
// goroutines; the race detector checks the stripes stay race-free and
// the assertions check every draw stays in range. (Sequence-level
// determinism is explicitly not promised under concurrency.)
func TestRandomHeightConcurrent(t *testing.T) {
	l := newList(3)
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				if h := l.RandomHeight(uint64(g*10000 + i)); h < 1 || h > l.Levels() {
					select {
					case errs <- h:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if h, ok := <-errs; ok {
		t.Fatalf("concurrent draw produced out-of-range height %d", h)
	}
}
