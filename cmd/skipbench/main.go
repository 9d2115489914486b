// Command skipbench regenerates the reproduction experiments listed in
// README.md, "Reproduction experiments (T1-T8, F1)": the measurable
// claims of "The SkipTrie: Low-Depth Concurrent Search without
// Rebalancing" (Oshman & Shavit, PODC 2013).
//
// Usage:
//
//	skipbench [-exp all|t1|t2|t3|t4|t5|t6|f1|t7|t8|s1|s2|s3|s4] [-m 16384]
//	          [-queries 20000] [-dur 150ms] [-threads 1,2,4,8]
//	          [-shards 1,2,4,8,16]
//
// Each experiment prints one table headed by the paper's claim it checks.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"skiptrie/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp     = flag.String("exp", "all", "experiment id: all, t1..t8, f1, s1, s2, s3, s4 (comma-separated ok)")
		m       = flag.Int("m", 1<<14, "resident keys")
		queries = flag.Int("queries", 20000, "sequential measured queries")
		dur     = flag.Duration("dur", 150*time.Millisecond, "duration per concurrent cell")
		threads = flag.String("threads", "1,2,4,8", "thread counts for scaling experiments")
		shards  = flag.String("shards", "1,2,4,8,16", "shard counts for the s1 sharding sweep")
	)
	flag.Parse()

	ths, err := parseCounts(*threads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipbench: %v\n", err)
		return 2
	}
	shs, err := parseCounts(*shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipbench: %v\n", err)
		return 2
	}
	sc := harness.Scale{M: *m, Queries: *queries, Duration: *dur, Threads: ths, Shards: shs}

	fmt.Printf("skiptrie reproduction experiments (GOMAXPROCS=%d, m=%d, queries=%d, dur=%v)\n\n",
		runtime.GOMAXPROCS(0), sc.M, sc.Queries, sc.Duration)

	table := map[string]func(harness.Scale) harness.Result{
		"t1": harness.T1PredecessorVsUniverse,
		"t2": harness.T2PredecessorVsM,
		"t3": harness.T3AmortizedUpdates,
		"t4": harness.T4Throughput,
		"t5": harness.T5Contention,
		"t6": harness.T6Space,
		"f1": harness.F1TopGaps,
		"t8": harness.T8PrevRepair,
		"s1": harness.S1ShardedScaling,
		"s2": harness.S2HotRangeResharding,
		"s3": s3PinPressure,
		"s4": s4ConnectionScale,
	}
	order := []string{"t1", "t2", "t3", "t4", "t5", "t6", "f1", "t8", "s1", "s2", "s3", "s4"}

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.ToLower(strings.TrimSpace(id))
			if _, ok := table[id]; !ok {
				fmt.Fprintf(os.Stderr, "skipbench: unknown experiment %q (want one of %s)\n",
					id, strings.Join(order, ", "))
				return 2
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		start := time.Now()
		res := table[id](sc)
		res.Notes = append(res.Notes, fmt.Sprintf("experiment wall time: %v", time.Since(start).Round(time.Millisecond)))
		res.Fprint(os.Stdout)
	}
	return 0
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no counts")
	}
	return out, nil
}
