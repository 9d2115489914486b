package core

import (
	"time"

	"skiptrie/internal/stats"
)

// This file lifts the skiplist's epoch machinery (skiplist/epoch.go) to
// the composed SkipTrie: pinning an epoch and point reads against a
// pinned epoch (the snapshot cursor is MakeSnapIter, the window diff
// DiffEpochs; internal/shard bundles pins into snapshot handles). The
// x-fast trie needs no epoch awareness — it only accelerates descents,
// and visibility is decided at the bottom list.

// PinEpoch pins the trie's current epoch and returns it: until a
// matching ReleaseEpoch, every key and value version visible at the
// returned epoch stays reachable through FindAt and the snapshot
// cursor. Pins are refcounted; any number may be live concurrently.
func (s *SkipTrie[V]) PinEpoch() uint64 { return s.list.PinEpoch() }

// ReleaseEpoch drops one reference on a pinned epoch, reclaiming nodes
// no remaining pin can see.
func (s *SkipTrie[V]) ReleaseEpoch(at uint64) { s.list.ReleaseEpoch(at) }

// PinnedEpochs returns the number of live pins, for tests and
// diagnostics.
func (s *SkipTrie[V]) PinnedEpochs() int { return s.list.PinCount() }

// PinStats returns the epoch-retention gauges in one call: live pin
// count, retained dead nodes, live journal segments, and how long the
// oldest live pin has been held (0 when unpinned). Safe concurrently
// with everything.
func (s *SkipTrie[V]) PinStats() (live, retained, segments int, oldest time.Duration) {
	l := s.list
	return l.PinCount(), l.RetainedCount(), l.JournalSegments(), l.OldestPinAge()
}

// FindAt returns the value key held at the pinned epoch at, reporting
// whether the key was present then. The caller must hold a pin on at.
func (s *SkipTrie[V]) FindAt(key, at uint64, c *stats.Op) (V, bool) {
	k, ok := s.local(key)
	if !ok {
		var zero V
		return zero, false
	}
	start := s.trie.Pred(k, false, c)
	br := s.list.PredecessorBracket(k, start, c)
	if n, ok := s.list.FindVisible(br.Right, k, at, c); ok {
		return s.list.ValueAt(n, at), true
	}
	var zero V
	return zero, false
}
