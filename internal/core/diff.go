package core

import "skiptrie/internal/stats"

// This file implements the epoch-window diff over one trie: resolve the
// journaled changed-key set (skiplist/journal.go) against two pinned
// views. Cost is O(changed keys · search), independent of the trie's
// size — untouched keys are never visited.

// DiffEpochs streams the net per-key changes between the pinned epochs
// a and b (a <= b, both pinned by the caller for the duration) to emit,
// in ascending key order: put=true with the value current at b for keys
// added or overwritten in the window, put=false for keys removed. Keys
// whose window history nets out (insert then delete, or delete then
// re-insert of the same node... distinct nodes always differ) are
// resolved against both views and emitted only when the views disagree,
// so a consumer applying the events to a copy of view a obtains exactly
// view b. Returns false if emit stopped the walk.
func (s *SkipTrie[V]) DiffEpochs(a, b uint64, c *stats.Op, emit func(key uint64, val V, put bool) bool) bool {
	if a >= b {
		return true
	}
	for _, k := range s.list.ChangedKeys(a, b) {
		start := s.trie.Pred(k, false, c)
		br := s.list.PredecessorBracket(k, start, c)
		nA, okA := s.list.FindVisible(br.Right, k, a, c)
		nB, okB := s.list.FindVisible(br.Right, k, b, c)
		switch {
		case !okA && !okB:
			// Netted out inside the window (e.g. insert then delete).
		case okA && !okB:
			var zero V
			if !emit(s.base+k, zero, false) {
				return false
			}
		case !okA && okB:
			if !emit(s.base+k, s.list.ValueAt(nB, b), true) {
				return false
			}
		case nA != nB:
			// Distinct incarnations: deleted and re-inserted in the window.
			if !emit(s.base+k, s.list.ValueAt(nB, b), true) {
				return false
			}
		default:
			// Same node visible in both views: emit only if its value was
			// overwritten inside the window.
			if v, from := s.list.ValueStampAt(nB, b); from > a {
				if !emit(s.base+k, v, true) {
					return false
				}
			}
		}
	}
	return true
}
