package skiplist

import "fmt"

// Validate sweeps the quiescent list and verifies its structural
// invariants. It must only be called while no operations are in flight;
// a non-nil error indicates a broken invariant (a bug).
//
// Checked invariants:
//  1. every level is strictly sorted over its unmarked nodes and ends at
//     the tail sentinel;
//  2. the unmarked key set of level L+1 is a subset of level L's
//     (towers are contiguous from level 0);
//  3. every unmarked node above level 0 has a down pointer to a same-key
//     node of the same tower, and its root is unmarked;
//  4. every unmarked top-level node is ready and its prev pointer is
//     exactly its unmarked top-level predecessor (prev pointers are mere
//     guides during execution, but quiescence implies all repairs
//     finished);
//  5. the recorded length matches the number of live level-0 nodes.
//
// Dead nodes retained on the bottom list for pinned epochs (unmarked,
// dead stamp set — see epoch.go) are treated as deleted: they are
// excluded from the key sets, the length count and the strict-order
// check, but must still sort correctly relative to every live key and
// carry no unmarked tower nodes.
func (l *Topology) Validate() error {
	levelKeys := make([]map[uint64]*Node, l.levels)
	for lv := 0; lv < l.levels; lv++ {
		keys := make(map[uint64]*Node)
		prevKey := uint64(0)
		first := true
		n := l.heads[lv]
		for {
			next, marked := n.Next()
			if n.kind == kindTail {
				break
			}
			if next == nil {
				return fmt.Errorf("level %d: nil next before tail (node %v)", lv, n.key)
			}
			if n.kind == kindData && !marked {
				// The dead stamp lives on the root (for level 0 the node
				// is its own root); an unmarked tower node whose root is
				// dead is a teardown leak, while a dead level-0 node is
				// legitimate retention.
				if n.root.dead.Load() != 0 {
					if lv != 0 {
						return fmt.Errorf("level %d: unmarked tower node %d of a dead root", lv, n.key)
					}
					// Retained for a pinned epoch: logically deleted. It
					// may share its key with the live incarnation in
					// front of it, but must never precede a smaller key.
					if !first && n.key < prevKey {
						return fmt.Errorf("level %d: keys out of order: dead %d after %d", lv, n.key, prevKey)
					}
					prevKey, first = n.key, false
					n = next
					continue
				}
				if !first && n.key <= prevKey {
					return fmt.Errorf("level %d: keys out of order: %d after %d", lv, n.key, prevKey)
				}
				prevKey, first = n.key, false
				keys[n.key] = n
				if int(n.level) != lv {
					return fmt.Errorf("level %d: node %d carries level %d", lv, n.key, n.level)
				}
			}
			n = next
		}
		levelKeys[lv] = keys
	}

	for lv := 1; lv < l.levels; lv++ {
		for k, n := range levelKeys[lv] {
			if _, ok := levelKeys[lv-1][k]; !ok {
				return fmt.Errorf("level %d: key %d present but missing on level %d", lv, k, lv-1)
			}
			if n.down == nil || n.down.key != k {
				return fmt.Errorf("level %d: key %d has bad down pointer", lv, k)
			}
			if n.root == nil || n.root.level != 0 || n.root.key != k {
				return fmt.Errorf("level %d: key %d has bad root pointer", lv, k)
			}
			if n.root.Marked() {
				return fmt.Errorf("level %d: key %d unmarked but root marked", lv, k)
			}
		}
	}

	// Top-level doubly-linked invariants.
	top := l.levels - 1
	prev := l.heads[top]
	n := l.heads[top]
	for {
		next, marked := n.Next()
		if n.kind == kindTail {
			if got := n.prev.Load(); got != prev {
				return fmt.Errorf("tail.prev = %v, want key %v", nodeDesc(got), nodeDesc(prev))
			}
			break
		}
		if n.kind == kindData && !marked {
			if !n.has(flagReady) {
				return fmt.Errorf("top node %d not ready at quiescence", n.key)
			}
			if got := n.prev.Load(); got != prev {
				return fmt.Errorf("top node %d: prev = %v, want %v", n.key, nodeDesc(got), nodeDesc(prev))
			}
			prev = n
		}
		n = next
	}

	if got, want := l.Len(), len(levelKeys[0]); got != want {
		return fmt.Errorf("Len() = %d but %d unmarked level-0 nodes", got, want)
	}
	return nil
}

func nodeDesc(n *Node) string {
	switch {
	case n == nil:
		return "<nil>"
	case n.kind == kindHead:
		return "head"
	case n.kind == kindTail:
		return "tail"
	default:
		return fmt.Sprintf("key %d", n.key)
	}
}

// LevelCounts walks every level and returns the number of unmarked data
// nodes on each (index 0 = bottom). Call at quiescence; used by
// visualization and the F1/T6 experiments.
func (l *Topology) LevelCounts() []int {
	counts := make([]int, l.levels)
	for lv := 0; lv < l.levels; lv++ {
		n := l.heads[lv]
		for {
			next, marked := n.Next()
			if n.kind == kindData && !marked && n.dead.Load() == 0 {
				counts[lv]++
			}
			if n.kind == kindTail {
				break
			}
			n = next
		}
	}
	return counts
}

// TopGaps returns, for each pair of consecutive top-level nodes (including
// the head and tail sentinels as boundaries), the number of level-0 keys
// strictly between them. This measures the paper's Figure 1 claim: gaps
// are geometrically distributed with mean about log u. Call at quiescence.
func (l *Topology) TopGaps() []int {
	top := l.levels - 1
	var gaps []int
	gap := 0
	nextTop := l.heads[top].succ()
	n := l.heads[0]
	for {
		next, marked := n.Next()
		if n.kind == kindTail {
			gaps = append(gaps, gap)
			break
		}
		if n.kind == kindData && !marked && n.dead.Load() == 0 {
			// Is this key the next top-level key?
			for nextTop.kind == kindData && nextTop.Marked() {
				nextTop = nextTop.succ()
			}
			if nextTop.kind == kindData && nextTop.key == n.key {
				gaps = append(gaps, gap)
				gap = 0
				nextTop = nextTop.succ()
			} else {
				gap++
			}
		}
		n = next
	}
	return gaps
}
