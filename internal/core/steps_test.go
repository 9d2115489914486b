// Single-goroutine step counts gain nothing from the race detector,
// which only slows their 2^18 inserts tenfold.
//go:build !race

package core

import (
	"math/rand"
	"slices"
	"testing"

	"skiptrie/internal/stats"
)

// The TestSteps tests turn the paper's step-count claims (experiments
// T1-T3 of README.md's "Reproduction experiments (T1-T8, F1)") into
// fixed-seed assertions. Step counts carry no timing noise, so a
// regression in the search or in tower heights fails by name on any
// machine; CI runs them as their own step.

// TestStepsProbesFlat checks T1 at W=32: mean hash probes per Find and
// Predecessor stay flat as the key count grows from 2^12 to 2^18, and
// stay at most 4.2 (the binary search on prefix length made 6).
func TestStepsProbesFlat(t *testing.T) {
	const (
		w       = 32
		queries = 1 << 12
	)
	s := newTrie(w)
	rng := rand.New(rand.NewSource(19))
	var keys []uint64
	lo, hi := 1e9, 0.0
	for lg := 12; lg <= 18; lg++ {
		// Grow to 2^lg keys with one sorted batch: the structure is the
		// same as after single inserts, built with far fewer cache misses.
		batch := make([]uint64, 1<<lg-len(keys))
		for i := range batch {
			batch[i] = rng.Uint64() >> (64 - w)
		}
		slices.Sort(batch)
		s.StoreRun(batch, make([]uint64, len(batch)), nil)
		keys = append(keys, batch...)
		var op stats.Op
		for i := 0; i < queries; i++ {
			if i%2 == 0 {
				s.Find(keys[rng.Intn(len(keys))], &op)
			} else {
				s.Predecessor(rng.Uint64()>>(64-w), &op)
			}
		}
		mean := float64(op.HashProbes) / queries
		t.Logf("m=2^%d: %.2f probes per query", lg, mean)
		if mean > 4.2 {
			t.Errorf("m=2^%d: %.2f probes per query, want at most 4.2", lg, mean)
		}
		lo, hi = min(lo, mean), max(hi, mean)
	}
	if hi-lo > 0.5 {
		t.Errorf("probes per query spread %.2f..%.2f over m=2^12..2^18, want within 0.5", lo, hi)
	}
}

// TestStepsProbesBounded checks T2's worst case: no single Find or
// Predecessor makes more than 2⌈log2 W⌉+2 probes, on uniform keys and on
// dense keys 0..m-1, at every width from 1 to 64. Queries run between
// insert batches too, so searches start from start depths the growing
// trie has not settled.
func TestStepsProbesBounded(t *testing.T) {
	for _, w := range []uint8{1, 2, 8, 16, 32, 64} {
		mask := ^uint64(0) >> (64 - w)
		m := uint64(1) << min(w, 12)
		for _, dense := range []bool{false, true} {
			s := newTrie(w)
			rng := rand.New(rand.NewSource(int64(w)))
			var keys []uint64
			worst := uint64(0)
			query := func(n int) {
				for i := 0; i < n; i++ {
					var op stats.Op
					if i%2 == 0 && len(keys) > 0 {
						s.Find(keys[rng.Intn(len(keys))], &op)
					} else {
						s.Predecessor(rng.Uint64()&mask, &op)
					}
					worst = max(worst, op.HashProbes)
					if op.HashProbes > probeBound(w) {
						t.Fatalf("W=%d dense=%v: a query made %d probes, want at most %d", w, dense, op.HashProbes, probeBound(w))
					}
				}
			}
			for i := uint64(0); i < m; i++ {
				k := i
				if !dense {
					k = rng.Uint64() & mask
				}
				if s.Add(k, nil) {
					keys = append(keys, k)
				}
				if i%(m/4+1) == 0 {
					query(64)
				}
			}
			query(4096)
			t.Logf("W=%d dense=%v: worst %d probes (bound %d)", w, dense, worst, probeBound(w))
		}
	}
}

// TestStepsTrieTouchShare checks T3: a fresh insert touches the trie only
// when its tower reaches the top level, which happens with probability
// 2^-⌈log2 W⌉ (about 1/log u). The measured share stays within half and
// twice of that.
func TestStepsTrieTouchShare(t *testing.T) {
	const inserts = 1 << 14
	for _, w := range []uint8{16, 32, 64} {
		s := newTrie(w)
		rng := rand.New(rand.NewSource(int64(w)))
		fresh, touched := 0, 0
		for fresh < inserts {
			var op stats.Op
			if !s.Add(rng.Uint64()>>(64-w), &op) {
				continue
			}
			fresh++
			if op.TrieTouch {
				touched++
			}
		}
		share := float64(touched) / inserts
		want := 1 / float64(uint64(1)<<ceilLog2(w))
		t.Logf("W=%d: %d of %d fresh inserts touched the trie (%.4f, p=%.4f)", w, touched, inserts, share, want)
		if share < want/2 || share > 2*want {
			t.Errorf("W=%d: trie touched on %.4f of fresh inserts, want within %.4f..%.4f", w, share, want/2, 2*want)
		}
	}
}
