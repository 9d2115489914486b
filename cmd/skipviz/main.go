// Command skipviz builds a SkipTrie from a synthetic workload and prints
// its internal shape: per-level populations of the truncated skiplist, the
// top-level gap histogram (the paper's Figure 1, as ASCII), and x-fast
// trie density per prefix length. It makes the probabilistic balancing
// argument visible: level populations halve per level, and trie-indexed
// keys sit ~log u apart without any rebalancing.
//
// Usage:
//
//	skipviz [-width 32] [-m 16384] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strings"

	"skiptrie/internal/core"
	"skiptrie/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		width = flag.Int("width", 32, "universe width W = log u (1..64)")
		m     = flag.Int("m", 1<<14, "number of keys")
		seed  = flag.Uint64("seed", 1, "tower-height seed")
	)
	flag.Parse()
	if *width < 1 || *width > 64 {
		fmt.Fprintln(os.Stderr, "skipviz: width must be in 1..64")
		return 2
	}

	st := core.NewSet(core.Config{Width: uint8(*width), Seed: *seed})
	keys := harness.Prefill(harness.SkipTrieSet{T: st}, *m, uint8(*width))

	fmt.Printf("SkipTrie: W=%d (u=2^%d), levels=%d, keys=%d\n\n",
		*width, *width, st.Levels(), len(keys))

	// Level populations: measured vs the geometric expectation.
	fmt.Println("truncated skiplist level populations:")
	sp := st.Space()
	levels := st.Levels()
	gaps := st.TopGaps()
	topCount := len(gaps) - 1
	if topCount < 0 {
		topCount = 0
	}
	counts := st.LevelCounts()
	for lv := 0; lv < levels; lv++ {
		expected := float64(len(keys)) / float64(uint64(1)<<lv)
		bar := strings.Repeat("#", int(40*float64(counts[lv])/float64(len(keys))))
		fmt.Printf("  L%-2d measured=%8d  expected=%9.1f  %s\n", lv, counts[lv], expected, bar)
	}
	fmt.Printf("  total tower nodes: %d (%.2f per key)\n\n",
		sp.TowerNodes, float64(sp.TowerNodes)/float64(len(keys)))

	// Figure 1: gap histogram.
	fmt.Printf("top-level gap histogram (trie-indexed keys: %d, mean spacing target ~%d):\n", topCount, *width)
	hist := map[int]int{}
	maxBucket := 0
	sum := 0
	for _, g := range gaps {
		b := g / 8
		hist[b]++
		if b > maxBucket {
			maxBucket = b
		}
		sum += g
	}
	peak := 0
	for _, c := range hist {
		if c > peak {
			peak = c
		}
	}
	for b := 0; b <= maxBucket; b++ {
		c := hist[b]
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("*", 50*c/peak)
		}
		fmt.Printf("  [%3d-%3d) %5d %s\n", b*8, (b+1)*8, c, bar)
	}
	if len(gaps) > 0 {
		fmt.Printf("  mean gap: %.1f (geometric prediction: %d)\n\n", float64(sum)/float64(len(gaps)), *width)
	}

	// Trie density per prefix length: at depth d there are at most
	// min(2^d, tops) distinct prefixes.
	fmt.Printf("x-fast trie: %d prefix nodes over %d hash buckets (%.2f prefixes per key)\n",
		sp.TriePrefix, sp.HashBuckets, float64(sp.TriePrefix)/float64(len(keys)))
	fmt.Printf("  expectation: tops * W / overlap ~= %d nodes for %d tops\n",
		estimateTrieNodes(topCount, *width), topCount)
	fmt.Printf("  search bound per query: at most %d probes\n", max(2*bits.Len(uint(*width-1)), 1))
	return 0
}

// estimateTrieNodes approximates the trie size: the top d = lg(tops)
// levels are nearly full (2^d nodes) and below that each top key
// contributes roughly its own chain of (W - lg tops) nodes.
func estimateTrieNodes(tops, w int) int {
	if tops == 0 {
		return 0
	}
	lg := 0
	for 1<<lg < tops {
		lg++
	}
	full := 1<<lg - 1
	chains := tops * (w - lg)
	if chains < 0 {
		chains = 0
	}
	return full + chains
}
