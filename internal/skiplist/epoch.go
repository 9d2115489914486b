package skiplist

import (
	"runtime"
	"sync/atomic"
	"time"

	"skiptrie/internal/stats"
	"skiptrie/internal/uintbits"
)

// This file implements the list's epoch clock and snapshot-pin registry:
// the substrate of consistent point-in-time reads (shard.Snap and the
// public Snapshot handle).
//
// # Epochs
//
// Every list carries a monotone epoch counter, starting at 1. Level-0
// nodes are stamped with the epoch current when they were linked (born)
// and the epoch current when a delete committed them (dead, 0 while
// alive); in-place value overwrites stamp the epoch each value became
// current (list.go). The counter is bumped only by PinEpoch — update
// stamping just reads it — so stamping costs one atomic load per update
// and epochs partition the history into pin-delimited generations.
//
// # Pin protocol
//
// PinEpoch registers a reference on the current epoch P and then bumps
// the counter to P+1, all under pinMu, returning P. A node is visible at
// P iff born <= P and (dead == 0 or dead > P): updates stamped in
// generations <= P linearized before the pin (or overlapped it, which a
// pin is free to order either way), updates stamped later cannot be
// ordered before it because the bump happened before their epoch load
// could return a value > P.
//
// The registration-before-bump order is what makes the delete-side
// retention check race-free: a delete loads the epoch e, CASes the
// node's dead stamp to e, and only then consults minPin. Any pin P < e
// must have completed its registration before the counter reached
// P+1 <= e — which happened before the delete's epoch load — so by the
// time the delete checks, minPin <= P is visible and the node is
// retained. A pin the delete misses necessarily has P >= e and cannot
// see the node anyway.
//
// # The commit counter
//
// A stamp is sampled from the clock strictly before the CAS (or value
// write) that commits it, which opens a stale-stamp window: a writer
// samples epoch e, a pin registers P = e and bumps to e+1, the pin
// returns, a live read observes the pre-commit state, and only then
// does the writer's commit land — stamped e, which orders it before
// the pin even though the completed read proved it had not happened
// by then. The commit counter closes the window from the pin side:
// every stamping operation brackets [epoch sample, committing CAS]
// with a +1/-1 pair on its key's commit stripe, and PinEpoch, after
// bumping the clock, spins until the counter drains before returning
// the pin. Any commit whose stamp could be stale therefore completes
// before the pin handle exists, so no observation can contradict
// ordering it before the pin; commits entered after the drain
// re-sample the clock and see the bumped epoch. Stampers never wait —
// deletes and inserts stay lock-free, the pin (never claimed
// lock-free) absorbs the waiting — and the cost on the update path is
// two uncontended atomic adds, the same class of cost as the existing
// length counter.
//
// Commits are additionally generation-tagged by epoch parity (see
// commitStripe): commitEnter registers in the lane of the epoch it
// confirmed, and the pin drains only the lane of the generation it is
// closing. A commit that enters after the bump — whose stamp is
// provably fresh — lands in the other lane and is skipped, so a
// steady stream of post-bump writers can no longer extend the pin's
// drain wait; the pin waits only for the handful of commits that were
// genuinely in flight at its bump.
//
// # Retention and reclamation
//
// A delete whose dead epoch is visible to some live pin leaves the
// level-0 node physically on the bottom list — unmarked, so the list
// stays navigable through it, but logically dead: every live-view read
// skips nodes with dead != 0, and a later insert of the same key splices
// a fresh node in front of it (same-key runs are ordered newest-first,
// and at most one node of a run is visible at any epoch because their
// [born, dead) intervals are disjoint). ReleaseEpoch drops the pin's
// reference and sweeps: retained nodes whose dead epoch no live pin can
// see any more are marked and unlinked exactly as an ordinary delete
// would have, completing the paper's physical removal late rather than
// differently. With no pins live, deletes reclaim inline and the only
// overhead on any path is one atomic load.

// noPin is minPin's value while no epoch is pinned; it compares larger
// than every real epoch, so "minPin < dead" is false and every delete
// reclaims inline.
const noPin = ^uint64(0)

// commitStripes spreads the commit counter across cache lines, striped
// by key hash, so concurrent writers on different keys do not bounce
// one shared line for their two bracketing adds. Power of two.
const commitStripes = 8

// commitStripe is one padded stripe of the commit counter, split into
// two generation lanes by epoch parity. A commit registers in the lane
// of the epoch it confirmed (commitEnter), so a pin bumping the clock
// from e to e+1 needs to drain only lane e&1: every commit in the
// other lane provably confirmed the post-bump epoch and cannot carry a
// stale stamp. Two lanes suffice because pins serialize under pinMu
// and each drains its own generation before unlocking — at any bump
// the only in-flight commits are generation e or e+1.
type commitStripe struct {
	gen [2]atomic.Int64
	_   [48]byte // keep stripes on separate cache lines
}

// commitEnter brackets the start of a stamping commit for key and
// returns the lane to exit through (lane.Add(-1)). It registers in the
// current epoch's parity lane and confirms the epoch did not move
// between registration and the confirming reload; if it did, the
// registration may sit in a lane a concurrent pin is not draining, so
// it backs out and re-enters under the new epoch. Each retry requires
// a clock bump (pins are rare and never lock-free themselves), so the
// loop stays wait-free in practice and the stamping paths never wait.
func (l *Topology) commitEnter(key uint64) *atomic.Int64 {
	s := &l.committing[uintbits.Mix64(key)&(commitStripes-1)]
	for {
		e := l.epoch.Load()
		lane := &s.gen[e&1]
		lane.Add(1)
		if l.epoch.Load() == e {
			return lane
		}
		lane.Add(-1)
	}
}

// PinCount returns the number of live pins, for tests and diagnostics.
func (l *Topology) PinCount() int { return int(l.pinCount.Load()) }

// RetainedCount returns the number of dead nodes currently retained for
// pinned epochs, for tests and diagnostics.
func (l *Topology) RetainedCount() int {
	l.retiredMu.Lock()
	n := len(l.retired)
	l.retiredMu.Unlock()
	return n
}

// pinClock anchors the monotonic timestamps pin ages are measured
// against; storing offsets from it keeps the pinTimes entries word-sized.
var pinClock = time.Now()

// pinNow returns monotonic nanoseconds since pinClock.
func pinNow() int64 { return int64(time.Since(pinClock)) }

// OldestPinAge returns how long the longest-held live pin has been
// held, or 0 when nothing is pinned. This is the retention-pressure
// gauge: every delete since that pin was taken may be retaining its
// node (see RetainedCount for the count actually held).
func (l *Topology) OldestPinAge() time.Duration {
	l.pinMu.Lock()
	oldest := int64(-1)
	for _, at := range l.pinTimes {
		if oldest < 0 || at < oldest {
			oldest = at
		}
	}
	l.pinMu.Unlock()
	if oldest < 0 {
		return 0
	}
	return time.Duration(pinNow() - oldest)
}

// PinEpoch pins the current epoch and returns it: until a matching
// ReleaseEpoch, every node and value version visible at the returned
// epoch remains reachable. Pins are refcounted; any number may be live,
// at the same or different epochs.
func (l *Topology) PinEpoch() uint64 {
	l.pinMu.Lock()
	if l.pins == nil {
		l.pins = make(map[uint64]int)
		l.pinTimes = make(map[uint64]int64)
	}
	e := l.epoch.Load()
	if l.pins[e] == 0 {
		l.pinTimes[e] = pinNow()
	}
	l.pins[e]++
	live := int(l.pinCount.Add(1))
	if e < l.minPin.Load() {
		l.minPin.Store(e)
	}
	// Bump only after the registration is visible (see the protocol
	// comment above): a delete that stamps a dead epoch > e is
	// guaranteed to observe this pin when it decides retention.
	l.epoch.Store(e + 1)
	hook("pin.after-bump", nil)
	// Drain in-flight commits before handing out the pin: any stamp
	// sampled before the bump (and thus possibly <= e) commits before
	// this returns, so no read issued through the pin — or against the
	// live structure after this returns — can contradict ordering that
	// commit before the pin. Only generation e's parity lane needs
	// draining: a commit in the other lane confirmed the clock after
	// this bump (commitEnter re-enters when the epoch moves under it),
	// so its stamp is at least e+1 and cannot order before this pin.
	// Generation e-1 residue cannot hide in that lane either — the
	// previous pin drained it to zero before releasing pinMu, and
	// re-entry there requires confirming epoch e+1. Stripes are drained
	// one at a time; that stays sound because a stamper entering a
	// stripe after its scan necessarily confirmed the already-bumped
	// clock. The wait is bounded by the commit windows in flight at the
	// bump — a handful of instructions each, or one scheduling quantum
	// if a stamper is preempted inside its window; pins (never claimed
	// lock-free) absorb that, stampers never wait. See "The commit
	// counter" above.
	lane := e & 1
	for i := range l.committing {
		for spins := 0; l.committing[i].gen[lane].Load() != 0; spins++ {
			if spins%64 == 0 {
				runtime.Gosched()
			}
		}
	}
	l.pinMu.Unlock()
	if t := l.trace; t != nil && t.Pin != nil {
		t.Pin(true, e, 0, live)
	}
	return e
}

// releaseEpoch is the value-free part of ReleaseEpoch: it drops one
// reference on a pinned epoch and, if that moved the pin horizon,
// reclaims every retained node no remaining pin can see, truncates the
// journal and reports true.
func (l *Topology) releaseEpoch(e uint64) bool {
	swept := false
	ageNs := int64(0)
	l.pinMu.Lock()
	if at, ok := l.pinTimes[e]; ok {
		ageNs = pinNow() - at
	}
	if n := l.pins[e]; n > 1 {
		l.pins[e] = n - 1
	} else {
		delete(l.pins, e)
		delete(l.pinTimes, e)
		min := uint64(noPin)
		for p := range l.pins {
			if p < min {
				min = p
			}
		}
		// Sweep only when the horizon actually moved: a release that
		// leaves minPin unchanged cannot have made anything
		// reclaimable (Delete retains only nodes with dead > minPin,
		// and Delete's own post-append re-check covers the racing
		// case), so scanning the retained list would be pure overhead.
		swept = min != l.minPin.Load()
		l.minPin.Store(min)
	}
	live := int(l.pinCount.Add(-1))
	l.pinMu.Unlock()
	if t := l.trace; t != nil && t.Pin != nil {
		t.Pin(false, e, ageNs, live)
	}
	if swept {
		l.sweepRetired(nil)
		l.journalTruncate()
	}
	return swept
}

// sweepRetired reclaims every retired node whose dead epoch no live pin
// can see. Nodes are removed from the retired set before they are
// touched, so concurrent sweeps never double-reclaim.
func (l *Topology) sweepRetired(c *stats.Op) {
	l.retiredMu.Lock()
	if len(l.retired) == 0 {
		l.retiredMu.Unlock()
		return
	}
	min := l.minPin.Load()
	kept := l.retired[:0]
	var reclaim []*Node
	for _, n := range l.retired {
		if min < n.dead.Load() {
			kept = append(kept, n)
		} else {
			reclaim = append(reclaim, n)
		}
	}
	for i := len(kept); i < len(l.retired); i++ {
		l.retired[i] = nil
	}
	l.retired = kept
	l.retiredMu.Unlock()
	for _, n := range reclaim {
		l.reclaimRoot(n, c)
	}
	if t := l.trace; t != nil && t.Sweep != nil && len(reclaim) > 0 {
		t.Sweep(len(reclaim), len(kept))
	}
}

// reclaimRoot performs the deferred physical removal of a retained
// level-0 node: the removeLevel an ordinary delete would have done
// inline, positioned by a full descent (walking level 0 from its head
// would cost O(m) per reclaim). The length was already adjusted when
// the delete committed; only the node accounting moves here.
func (l *Topology) reclaimRoot(n *Node, c *stats.Op) {
	l.removeLevel(n, l.PredecessorBracket(n.key, nil, c).Left, c)
}
