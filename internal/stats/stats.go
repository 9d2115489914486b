// Package stats provides per-operation step accounting for the SkipTrie's
// amortized-complexity experiments (T1-T5 of README.md's "Reproduction
// experiments (T1-T8, F1)").
//
// An *Op is threaded through one structure operation and accumulated
// locally (no atomics); a nil *Op disables accounting at near-zero cost.
// The harness aggregates completed Ops into striped counters, so
// measurement adds at most one atomic add per operation and does not
// perturb scaling behaviour.
package stats

// Op accumulates the step count of a single structure operation, split by
// component so experiments can attribute cost the way the paper's analysis
// does (search in the trie vs. list traversal vs. retried CAS).
type Op struct {
	Hops uint64 // node-to-node pointer traversals (list cost)
	CAS  uint64 // CAS attempts (successful or not)
	// DCSS is always 0: every update is a single-word CAS, counted in
	// CAS. It stays for readers that report CAS+DCSS per update.
	DCSS       uint64
	HashProbes uint64 // prefixes hash-table operations
	TrieLevels uint64 // trie levels crossed by an insert/delete walk
	TrieTouch  bool   // operation modified the x-fast trie
}

// Hop records one pointer traversal. Safe on a nil receiver.
func (o *Op) Hop() {
	if o != nil {
		o.Hops++
	}
}

// IncCAS records one CAS attempt. Safe on a nil receiver.
func (o *Op) IncCAS() {
	if o != nil {
		o.CAS++
	}
}

// Probe records one hash-table operation. Safe on a nil receiver.
func (o *Op) Probe() {
	if o != nil {
		o.HashProbes++
	}
}

// TrieLevel records crossing one trie level. Safe on a nil receiver.
func (o *Op) TrieLevel() {
	if o != nil {
		o.TrieLevels++
	}
}

// TouchTrie marks the operation as having modified the trie. Safe on a
// nil receiver.
func (o *Op) TouchTrie() {
	if o != nil {
		o.TrieTouch = true
	}
}

// Steps returns the operation's total step count: every pointer traversal,
// hash probe and synchronization attempt, the unit the paper's amortized
// bounds are stated in.
func (o *Op) Steps() uint64 {
	if o == nil {
		return 0
	}
	return o.Hops + o.CAS + o.HashProbes
}

// Add accumulates other into o. Safe on a nil receiver (no-op).
func (o *Op) Add(other Op) {
	if o == nil {
		return
	}
	o.Hops += other.Hops
	o.CAS += other.CAS
	o.HashProbes += other.HashProbes
	o.TrieLevels += other.TrieLevels
	o.TrieTouch = o.TrieTouch || other.TrieTouch
}
