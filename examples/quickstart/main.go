// Quickstart: the SkipTrie public API in two minutes — the sorted-set
// interface, predecessor/successor queries, ordered iteration, and the
// generic ordered map.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"skiptrie"
)

func main() {
	// A SkipTrie over a 32-bit universe: keys must be < 2^32. The universe
	// width is what makes predecessor queries O(log log u): at most 10
	// hash probes for W=32, about 3.5 on average, instead of a log(m)
	// pointer chase.
	st := skiptrie.MustNew(skiptrie.WithWidth(32))

	for _, k := range []uint64{100, 250, 375, 500, 625, 750} {
		st.Insert(k)
	}
	fmt.Println("size:", st.Len())

	// Predecessor: the largest key <= x. Successor: the smallest >= x.
	if k, ok := st.Predecessor(400); ok {
		fmt.Println("predecessor(400) =", k) // 375
	}
	if k, ok := st.Successor(400); ok {
		fmt.Println("successor(400)   =", k) // 500
	}
	if _, ok := st.Predecessor(99); !ok {
		fmt.Println("predecessor(99)  = none")
	}

	// Ordered iteration from a starting point.
	fmt.Print("keys >= 300:")
	st.Range(300, func(k uint64) bool {
		fmt.Print(" ", k)
		return true
	})
	fmt.Println()

	// Deletes are lock-free too; all operations may run concurrently from
	// any number of goroutines.
	st.Delete(500)
	if k, ok := st.Successor(400); ok {
		fmt.Println("successor(400) after delete(500) =", k) // 625
	}

	// Map[V]: same structure, with values and ordered queries.
	m := skiptrie.MustNewMap[string](skiptrie.WithWidth(32))
	m.Store(1000, "first")
	m.Store(2000, "second")
	if k, v, ok := m.Predecessor(1999); ok {
		fmt.Printf("map predecessor(1999) = %d -> %q\n", k, v)
	}

	// Attach Metrics — plus latency sampling — to see the paper's cost
	// model live. MetricsSnapshot.String renders the whole collector:
	// per-op counts with average steps, the structure counters, and the
	// sampled latency quantiles (rate 1 here; use something like 1/64 in
	// production so the hot path only pays a striped RNG draw per op).
	metrics := &skiptrie.Metrics{}
	st2 := skiptrie.MustNew(skiptrie.WithWidth(32),
		skiptrie.WithMetrics(metrics), skiptrie.WithLatencySampling(1))
	for k := uint64(0); k < 10000; k++ {
		st2.Insert(k * 429_496) // spread over the universe
	}
	for q := uint64(0); q < 1000; q++ {
		st2.Predecessor(q * 4_294_967)
	}
	sn := metrics.Snapshot()
	fmt.Println(sn.String())
	fmt.Printf("fraction of inserts that touched the x-fast trie: %.3f (expected ~1/32)\n",
		float64(sn.Touches)/float64(sn.Ops[skiptrie.OpInsert]))
}
