// Command skipstress hammers a SkipTrie with concurrent randomized
// operations and then validates every structural invariant, in repeated
// rounds. It is the long-running correctness companion to the unit tests:
// run it for minutes or hours to shake out rare interleavings.
//
// Usage:
//
//	skipstress [-rounds 20] [-workers 8] [-ops 5000] [-width 32]
//	           [-hot 0] [-eager] [-seed 1]
//
// Each round: workers execute random operations (over a hot window if -hot
// is set); then the structure is validated and per-key accounting is
// checked against the net insert/delete balance. Any violation aborts with
// a non-zero exit.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"skiptrie/internal/core"
	"skiptrie/internal/skiplist"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		rounds  = flag.Int("rounds", 20, "validation rounds")
		workers = flag.Int("workers", 8, "concurrent goroutines")
		ops     = flag.Int("ops", 5000, "operations per worker per round")
		width   = flag.Int("width", 32, "universe width")
		hot     = flag.Int("hot", 0, "hot-window size (0 = whole universe scaled to 1<<20)")
		eager   = flag.Bool("eager", false, "use eager prev repair (option 1)")
		seed    = flag.Int64("seed", 1, "base RNG seed")
	)
	flag.Parse()

	repair := skiplist.RepairRelaxed
	if *eager {
		repair = skiplist.RepairEager
	}
	st := core.NewSet(core.Config{
		Width:  uint8(*width),
		Repair: repair,
		Seed:   uint64(*seed),
	})

	span := uint64(1) << 20
	if *width < 20 {
		span = 1 << *width
	}
	if *hot > 0 {
		span = uint64(*hot)
	}

	fmt.Printf("skipstress: width=%d workers=%d ops/round=%d span=%d eager=%v\n",
		*width, *workers, *ops, span, *eager)

	// deltas[w][k] tracks worker w's net successful inserts of key k so the
	// final state can be checked exactly.
	start := time.Now()
	for round := 1; round <= *rounds; round++ {
		var wg sync.WaitGroup
		deltas := make([]map[uint64]int, *workers)
		for g := 0; g < *workers; g++ {
			deltas[g] = make(map[uint64]int)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(round*1000+g)))
				d := deltas[g]
				for i := 0; i < *ops; i++ {
					k := uint64(rng.Int63n(int64(span)))
					switch rng.Intn(5) {
					case 0, 1:
						if st.Add(k, nil) {
							d[k]++
						}
					case 2, 3:
						if st.Delete(k, nil) {
							d[k]--
						}
					default:
						st.Predecessor(k, nil)
					}
				}
			}(g)
		}
		wg.Wait()

		if err := st.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "round %d: INVARIANT VIOLATION: %v\n", round, err)
			return 1
		}
		// Net-balance audit: each key's presence must equal the sign of its
		// total net insertions across rounds... net per round is checked
		// cumulatively via a running ledger.
		if !audit(st, deltas, round) {
			return 1
		}
		fmt.Printf("round %2d ok: len=%d validate=pass (%v)\n", round, st.Len(), time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("skipstress: all rounds passed")
	return 0
}

// ledger accumulates net inserts across rounds (keys only ever touched
// through st, so presence must equal net > 0).
var ledger = map[uint64]int{}

func audit(st *core.SkipTrie[struct{}], deltas []map[uint64]int, round int) bool {
	for _, d := range deltas {
		for k, n := range d {
			ledger[k] += n
		}
	}
	for k, n := range ledger {
		if n != 0 && n != 1 {
			fmt.Fprintf(os.Stderr, "round %d: key %d has impossible net balance %d\n", round, k, n)
			return false
		}
		if got, want := st.Contains(k, nil), n == 1; got != want {
			fmt.Fprintf(os.Stderr, "round %d: key %d presence=%v, ledger says %v\n", round, k, got, want)
			return false
		}
	}
	return true
}
