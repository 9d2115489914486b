// Package skiptrie implements the SkipTrie of Oshman and Shavit ("The
// SkipTrie: Low-Depth Concurrent Search without Rebalancing", PODC 2013):
// a lock-free, linearizable concurrent predecessor structure over an
// integer universe [0, 2^W) supporting predecessor queries in expected
// amortized O(log log u + c) steps and updates in O(c log log u), where u
// is the universe size and c the contention, using O(m) space for m keys.
//
// The structure is a probabilistically balanced y-fast trie: all keys live
// in a truncated lock-free skiplist of log log u levels; keys whose towers
// reach the top level (probability 1/log u) are additionally indexed by a
// lock-free x-fast trie — a hash table over key prefixes. Where the paper
// binary-searches the prefix lengths, a search here gallops from a start
// depth kept per region of the universe, which follows the depths recent
// searches there found, and probes at most 2⌈log2 W⌉ prefixes, still
// O(log log u). Expected gaps of log u between indexed keys replace the
// y-fast trie's explicit bucket rebalancing, which is what makes a
// lock-free implementation tractable.
//
// # Quick start
//
//	st := skiptrie.MustNew(skiptrie.WithWidth(32))
//	st.Insert(42)
//	st.Insert(100)
//	if k, ok := st.Predecessor(99); ok {
//		fmt.Println(k) // 42
//	}
//
// All operations are safe for concurrent use and lock-free: a stalled
// goroutine cannot block others. For a key-value variant see Map.
package skiptrie

import "skiptrie/internal/core"

// SkipTrie is a concurrent lock-free sorted set of uint64 keys drawn from
// a universe [0, 2^W). Create one with New; the zero value is not usable.
//
// It runs on the same one-shard engine as Map, with zero-size values. A
// one-shard trie never reshards, so the shard latch a write takes is
// only ever taken in shared mode, and writes never wait on it.
type SkipTrie struct {
	e engine[struct{}]
}

// New returns an empty SkipTrie. It accepts any SetOption (the shared
// Option set); sharding options are NewSharded-only and do not compile
// here. It fails with an error wrapping ErrInvalidOption when an option
// carries an invalid value.
func New(opts ...SetOption) (*SkipTrie, error) {
	o, err := buildSetOptions(opts)
	if err != nil {
		return nil, err
	}
	return &SkipTrie{e: newEngine[struct{}](o, 1, 1)}, nil
}

// MustNew is New, panicking on error — for static configurations known
// valid at compile time.
func MustNew(opts ...SetOption) *SkipTrie {
	s, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Insert adds key to the set and reports whether it was absent. Keys
// outside the universe are rejected (returns false).
func (s *SkipTrie) Insert(key uint64) bool {
	m := s.e.m
	t := m.latStart()
	c := m.op()
	ok := s.e.t.Add(key, c)
	m.record(OpInsert, c)
	m.recordLatency(OpInsert, t)
	return ok
}

// Delete removes key from the set and reports whether this call removed
// it.
func (s *SkipTrie) Delete(key uint64) bool { return s.e.Delete(key) }

// Contains reports whether key is in the set.
func (s *SkipTrie) Contains(key uint64) bool {
	m := s.e.m
	t := m.latStart()
	c := m.op()
	ok := s.e.t.Contains(key, c)
	m.record(OpContains, c)
	m.recordLatency(OpContains, t)
	return ok
}

// Predecessor returns the largest key <= x.
func (s *SkipTrie) Predecessor(x uint64) (uint64, bool) {
	k, _, ok := s.e.Predecessor(x)
	return k, ok
}

// StrictPredecessor returns the largest key < x.
func (s *SkipTrie) StrictPredecessor(x uint64) (uint64, bool) {
	k, _, ok := s.e.StrictPredecessor(x)
	return k, ok
}

// Successor returns the smallest key >= x.
func (s *SkipTrie) Successor(x uint64) (uint64, bool) {
	k, _, ok := s.e.Successor(x)
	return k, ok
}

// StrictSuccessor returns the smallest key > x.
func (s *SkipTrie) StrictSuccessor(x uint64) (uint64, bool) {
	k, _, ok := s.e.StrictSuccessor(x)
	return k, ok
}

// Min returns the smallest key in the set.
func (s *SkipTrie) Min() (uint64, bool) {
	k, _, ok := s.e.Min()
	return k, ok
}

// Max returns the largest key in the set.
func (s *SkipTrie) Max() (uint64, bool) {
	k, _, ok := s.e.Max()
	return k, ok
}

// Len returns the number of keys. Under concurrent mutation the value is
// a point-in-time approximation.
func (s *SkipTrie) Len() int { return s.e.Len() }

// Width returns the universe width W = log2(u).
func (s *SkipTrie) Width() int { return int(s.e.t.Width()) }

// Levels returns the number of skiplist levels (about log log u).
func (s *SkipTrie) Levels() int { return s.e.t.Shard(0).Levels() }

// MaxKey returns the largest representable key, 2^W - 1.
func (s *SkipTrie) MaxKey() uint64 { return s.e.t.MaxKey() }

// Range calls fn on every key >= from in ascending order until fn returns
// false. Iteration is weakly consistent under concurrent mutation.
func (s *SkipTrie) Range(from uint64, fn func(key uint64) bool) {
	s.e.Range(from, func(k uint64, _ struct{}) bool { return fn(k) })
}

// Descend calls fn on every key <= from in descending order until fn
// returns false. Each step costs one strict-predecessor query; iteration
// is weakly consistent under concurrent mutation.
func (s *SkipTrie) Descend(from uint64, fn func(key uint64) bool) {
	s.e.Descend(from, func(k uint64, _ struct{}) bool { return fn(k) })
}

// Keys returns all keys in ascending order (a weakly consistent snapshot).
func (s *SkipTrie) Keys() []uint64 {
	keys := make([]uint64, 0, s.Len())
	s.Range(0, func(k uint64) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// SpaceStats describes the structure's footprint in node counts.
type SpaceStats = core.SpaceStats

// Space returns current space statistics (approximate under concurrency).
func (s *SkipTrie) Space() SpaceStats { return s.e.t.Space() }

// TopGaps returns the distribution of key counts between consecutive
// trie-indexed (top-level) keys; the paper predicts a geometric
// distribution with mean about log u. Call at quiescence.
func (s *SkipTrie) TopGaps() []int { return s.e.t.Shard(0).TopGaps() }

// Validate checks every structural invariant of the quiescent structure.
// It must not run concurrently with other operations. A non-nil error
// indicates a bug in this package.
func (s *SkipTrie) Validate() error { return s.e.Validate() }
