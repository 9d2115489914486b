package skiptrie

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// TestShardedBoundaryKeys stores keys at the exact edges of every shard
// — k*2^(w-s)-1 (last key of shard k-1) and k*2^(w-s) (first key of
// shard k) — and checks that point and ordered operations agree across
// the boundary.
func TestShardedBoundaryKeys(t *testing.T) {
	const w = 16
	for _, shards := range []int{2, 4, 8} {
		s := MustNewSharded[uint64](WithWidth(w), WithShards(shards), WithSeed(7))
		if s.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", s.Shards(), shards)
		}
		step := uint64(1) << (w - uint(log2(shards)))
		var keys []uint64
		for k := uint64(1); k < uint64(shards); k++ {
			keys = append(keys, k*step-1, k*step)
		}
		for _, k := range keys {
			s.Store(k, k*3)
		}
		if s.Len() != len(keys) {
			t.Fatalf("shards=%d Len = %d, want %d", shards, s.Len(), len(keys))
		}
		for _, k := range keys {
			if v, ok := s.Load(k); !ok || v != k*3 {
				t.Fatalf("shards=%d Load(%#x) = %d,%v", shards, k, v, ok)
			}
		}
		for k := uint64(1); k < uint64(shards); k++ {
			lo, hi := k*step-1, k*step
			// Queries exactly at the edge.
			if got, _, ok := s.Predecessor(hi); !ok || got != hi {
				t.Fatalf("shards=%d Predecessor(%#x) = %#x,%v want itself", shards, hi, got, ok)
			}
			if got, _, ok := s.StrictPredecessor(hi); !ok || got != lo {
				t.Fatalf("shards=%d StrictPredecessor(%#x) = %#x,%v want %#x", shards, hi, got, ok, lo)
			}
			if got, _, ok := s.StrictSuccessor(lo); !ok || got != hi {
				t.Fatalf("shards=%d StrictSuccessor(%#x) = %#x,%v want %#x", shards, lo, got, ok, hi)
			}
			if got, _, ok := s.Successor(lo); !ok || got != lo {
				t.Fatalf("shards=%d Successor(%#x) = %#x,%v want itself", shards, lo, got, ok)
			}
		}
		// Deleting one side of each boundary must re-stitch to the other.
		for k := uint64(1); k < uint64(shards); k++ {
			s.Delete(k*step - 1)
		}
		for k := uint64(2); k < uint64(shards); k++ {
			hi := k * step
			want := (k - 1) * step // previous boundary's surviving low side
			if got, _, ok := s.StrictPredecessor(hi); !ok || got != want {
				t.Fatalf("shards=%d after delete StrictPredecessor(%#x) = %#x,%v want %#x",
					shards, hi, got, ok, want)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("shards=%d Validate: %v", shards, err)
		}
	}
}

func log2(n int) int { return bits.Len(uint(n)) - 1 }

// TestShardedEmptyMiddleShards plants keys only in the first and last
// shards; predecessor/successor queries issued from the empty middle
// must skip several empty shards in both directions.
func TestShardedEmptyMiddleShards(t *testing.T) {
	const (
		w      = 20
		shards = 16
	)
	s := MustNewSharded[string](WithWidth(w), WithShards(shards))
	step := uint64(1) << (w - uint(log2(shards)))
	lo, hi := step-1, uint64(shards-1)*step
	s.Store(lo, "low")
	s.Store(hi, "high")
	for probe := uint64(1); probe < uint64(shards)-1; probe++ {
		x := probe*step + step/2 // inside empty shard `probe`
		if k, v, ok := s.Predecessor(x); !ok || k != lo || v != "low" {
			t.Fatalf("Predecessor(%#x) = %#x,%q,%v want low edge", x, k, v, ok)
		}
		if k, v, ok := s.Successor(x); !ok || k != hi || v != "high" {
			t.Fatalf("Successor(%#x) = %#x,%q,%v want high edge", x, k, v, ok)
		}
	}
	if k, _, ok := s.Min(); !ok || k != lo {
		t.Fatalf("Min = %#x,%v", k, ok)
	}
	if k, _, ok := s.Max(); !ok || k != hi {
		t.Fatalf("Max = %#x,%v", k, ok)
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != lo || keys[1] != hi {
		t.Fatalf("Keys = %v", keys)
	}
}

// TestShardedTortureBoundaryChurn concurrently churns the keys at every
// shard boundary while readers run ordered queries across those same
// boundaries. Run under -race in CI; the invariant checked live is that
// ordered queries only ever observe boundary keys and report them in
// order.
func TestShardedTortureBoundaryChurn(t *testing.T) {
	const (
		w       = 16
		shards  = 8
		writers = 4
		readers = 3
		iters   = 2000
	)
	s := MustNewSharded[uint64](WithWidth(w), WithShards(shards), WithSeed(13))
	step := uint64(1) << (w - uint(log2(shards)))
	valid := map[uint64]bool{}
	var boundary []uint64
	for k := uint64(1); k < shards; k++ {
		boundary = append(boundary, k*step-1, k*step)
		valid[k*step-1], valid[k*step] = true, true
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := boundary[rng.Intn(len(boundary))]
				switch rng.Intn(3) {
				case 0:
					s.Store(k, k)
				case 1:
					s.Delete(k)
				default:
					if v, loaded := s.LoadOrStore(k, k); loaded && v != k {
						t.Errorf("LoadOrStore(%#x) loaded %#x", k, v)
						return
					}
				}
			}
		}(int64(g + 1))
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				x := boundary[rng.Intn(len(boundary))]
				if k, v, ok := s.Predecessor(x); ok {
					if !valid[k] || k > x || v != k {
						t.Errorf("Predecessor(%#x) = %#x,%#x", x, k, v)
						return
					}
				}
				if k, _, ok := s.Successor(x); ok && (!valid[k] || k < x) {
					t.Errorf("Successor(%#x) = %#x", x, k)
					return
				}
				last := uint64(0)
				first := true
				s.Range(0, func(k uint64, v uint64) bool {
					if !valid[k] || v != k || (!first && k <= last) {
						t.Errorf("Range visited %#x (last %#x)", k, last)
						return false
					}
					last, first = k, false
					return true
				})
			}
		}(int64(100 + g))
	}
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate after churn: %v", err)
	}
}

// TestWithShardsRounding pins the option's rounding and clamping.
func TestWithShardsRounding(t *testing.T) {
	for _, tc := range []struct {
		n, w, want int
	}{
		{1, 32, 1},
		{2, 32, 2},
		{3, 32, 4},
		{9, 32, 16},
		{64, 4, 8}, // clamped to width-1 bits
	} {
		s := MustNewSharded[int](WithWidth(tc.w), WithShards(tc.n))
		if s.Shards() != tc.want {
			t.Errorf("WithShards(%d) at W=%d: Shards() = %d, want %d", tc.n, tc.w, s.Shards(), tc.want)
		}
	}
	// Default is a power of two.
	s := MustNewSharded[int]()
	if n := s.Shards(); n < 1 || n&(n-1) != 0 {
		t.Errorf("default Shards() = %d, want a power of two", n)
	}
}

// TestShardedMatchesMapSemantics replays one mixed op stream through
// Sharded and Map and requires identical observable behaviour — the
// "exact semantics of Map" contract, sequentially.
func TestShardedMatchesMapSemantics(t *testing.T) {
	const w = 12
	sh := MustNewSharded[uint64](WithWidth(w), WithShards(8), WithSeed(3))
	mp := MustNewMap[uint64](WithWidth(w), WithSeed(4))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 4000; i++ {
		k := rng.Uint64() >> (64 - w)
		v := rng.Uint64()
		switch rng.Intn(7) {
		case 0, 1:
			sh.Store(k, v)
			mp.Store(k, v)
		case 2:
			if got, want := sh.Delete(k), mp.Delete(k); got != want {
				t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
			}
		case 3:
			gv, gok := sh.Load(k)
			wv, wok := mp.Load(k)
			if gok != wok || gv != wv {
				t.Fatalf("Load(%d) = %d,%v want %d,%v", k, gv, gok, wv, wok)
			}
		case 4:
			gv, gl := sh.LoadOrStore(k, v)
			wv, wl := mp.LoadOrStore(k, v)
			if gl != wl || gv != wv {
				t.Fatalf("LoadOrStore(%d) = %d,%v want %d,%v", k, gv, gl, wv, wl)
			}
		case 5:
			gk, gv, gok := sh.Predecessor(k)
			wk, wv, wok := mp.Predecessor(k)
			if gok != wok || gk != wk || gv != wv {
				t.Fatalf("Predecessor(%d) = %d,%d,%v want %d,%d,%v", k, gk, gv, gok, wk, wv, wok)
			}
		default:
			gk, gv, gok := sh.Successor(k)
			wk, wv, wok := mp.Successor(k)
			if gok != wok || gk != wk || gv != wv {
				t.Fatalf("Successor(%d) = %d,%d,%v want %d,%d,%v", k, gk, gv, gok, wk, wv, wok)
			}
		}
	}
	// Out-of-universe behaviour matches Map too.
	big := uint64(1) << w
	sh.Store(big, 1)
	if _, ok := sh.Load(big); ok {
		t.Fatal("out-of-universe Store landed")
	}
	var shKeys, mpKeys []uint64
	sh.Range(0, func(k uint64, _ uint64) bool { shKeys = append(shKeys, k); return true })
	mp.Range(0, func(k uint64, _ uint64) bool { mpKeys = append(mpKeys, k); return true })
	if fmt.Sprint(shKeys) != fmt.Sprint(mpKeys) {
		t.Fatalf("final contents diverge: %d vs %d keys", len(shKeys), len(mpKeys))
	}
	var shDown []uint64
	sh.Descend(^uint64(0), func(k uint64, _ uint64) bool { shDown = append(shDown, k); return true })
	for i, j := 0, len(shDown)-1; i < j; i, j = i+1, j-1 {
		shDown[i], shDown[j] = shDown[j], shDown[i]
	}
	if fmt.Sprint(shDown) != fmt.Sprint(shKeys) {
		t.Fatal("Descend disagrees with Range")
	}
}

// TestShardedMetrics checks per-op recording aggregates into one
// Metrics snapshot across shards.
func TestShardedMetrics(t *testing.T) {
	var m Metrics
	s := MustNewSharded[int](WithWidth(16), WithShards(4), WithMetrics(&m))
	for i := uint64(0); i < 100; i++ {
		s.Store(i*641, int(i))
	}
	for i := uint64(0); i < 50; i++ {
		s.Load(i * 641)
		s.Predecessor(i * 641)
		s.Successor(i * 641)
		s.Delete(i * 641)
	}
	sn := m.Snapshot()
	if sn.Ops[OpInsert] != 100 || sn.Ops[OpContains] != 50 ||
		sn.Ops[OpPredecessor] != 50 || sn.Ops[OpSuccessor] != 50 || sn.Ops[OpDelete] != 50 {
		t.Fatalf("op counts wrong: %+v", sn.Ops)
	}
	if sn.Steps[OpInsert] == 0 || sn.Hops == 0 {
		t.Fatalf("no steps recorded: %+v", sn)
	}
}
