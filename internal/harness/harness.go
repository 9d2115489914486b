// Package harness runs the reproduction experiments (README.md,
// "Reproduction experiments (T1-T8, F1)") over the SkipTrie and its
// baselines, producing printable tables. It is shared by cmd/skipbench
// and the root bench_test.go so the benchmark numbers and the CLI's
// tables come from the same code.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"skiptrie/internal/baseline/cskiplist"
	"skiptrie/internal/baseline/lockedset"
	"skiptrie/internal/baseline/yfast"
	"skiptrie/internal/core"
	"skiptrie/internal/shard"
	"skiptrie/internal/stats"
	"skiptrie/internal/workload"
)

// Result is one experiment's output table.
type Result struct {
	Name   string
	Claim  string // the paper claim being checked
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", r.Name)
	if r.Claim != "" {
		fmt.Fprintf(w, "claim: %s\n", r.Claim)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(fmt.Sprintf("%-*s", widths[i], c))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Set is the operation surface every measured structure offers. Ops take
// an optional step counter; implementations that cannot count steps (the
// lock-based baselines) ignore it.
type Set interface {
	Name() string
	Insert(key uint64, c *stats.Op) bool
	Delete(key uint64, c *stats.Op) bool
	Contains(key uint64, c *stats.Op) bool
	Predecessor(x uint64, c *stats.Op) (uint64, bool)
}

// SkipTrieSet adapts core.SkipTrie.
type SkipTrieSet struct{ T *core.SkipTrie[struct{}] }

// Name implements Set.
func (s SkipTrieSet) Name() string { return "skiptrie" }

// Insert implements Set.
func (s SkipTrieSet) Insert(key uint64, c *stats.Op) bool { return s.T.Add(key, c) }

// Delete implements Set.
func (s SkipTrieSet) Delete(key uint64, c *stats.Op) bool { return s.T.Delete(key, c) }

// Contains implements Set.
func (s SkipTrieSet) Contains(key uint64, c *stats.Op) bool { return s.T.Contains(key, c) }

// Predecessor implements Set.
func (s SkipTrieSet) Predecessor(x uint64, c *stats.Op) (uint64, bool) {
	k, _, ok := s.T.Predecessor(x, c)
	return k, ok
}

// ShardedSet adapts the sharded trie in set form.
type ShardedSet struct{ T *shard.Trie[struct{}] }

// Name implements Set.
func (s ShardedSet) Name() string { return "sharded" }

// Insert implements Set.
func (s ShardedSet) Insert(key uint64, c *stats.Op) bool { return s.T.Add(key, c) }

// Delete implements Set.
func (s ShardedSet) Delete(key uint64, c *stats.Op) bool { return s.T.Delete(key, c) }

// Contains implements Set.
func (s ShardedSet) Contains(key uint64, c *stats.Op) bool { return s.T.Contains(key, c) }

// Predecessor implements Set.
func (s ShardedSet) Predecessor(x uint64, c *stats.Op) (uint64, bool) {
	k, _, ok := s.T.Predecessor(x, c)
	return k, ok
}

// CSkipListSet adapts the classic lock-free skiplist baseline.
type CSkipListSet struct{ L *cskiplist.List }

// Name implements Set.
func (s CSkipListSet) Name() string { return "skiplist" }

// Insert implements Set.
func (s CSkipListSet) Insert(key uint64, c *stats.Op) bool { return s.L.Insert(key, nil, c) }

// Delete implements Set.
func (s CSkipListSet) Delete(key uint64, c *stats.Op) bool { return s.L.Delete(key, c) }

// Contains implements Set.
func (s CSkipListSet) Contains(key uint64, c *stats.Op) bool { return s.L.Contains(key, c) }

// Predecessor implements Set.
func (s CSkipListSet) Predecessor(x uint64, c *stats.Op) (uint64, bool) {
	return s.L.Predecessor(x, c)
}

// LockedYFastSet adapts the mutex-protected y-fast trie.
type LockedYFastSet struct{ Y *yfast.Locked }

// Name implements Set.
func (s LockedYFastSet) Name() string { return "yfast+lock" }

// Insert implements Set.
func (s LockedYFastSet) Insert(key uint64, _ *stats.Op) bool { return s.Y.Insert(key, nil) }

// Delete implements Set.
func (s LockedYFastSet) Delete(key uint64, _ *stats.Op) bool { return s.Y.Delete(key) }

// Contains implements Set.
func (s LockedYFastSet) Contains(key uint64, _ *stats.Op) bool { return s.Y.Contains(key) }

// Predecessor implements Set.
func (s LockedYFastSet) Predecessor(x uint64, _ *stats.Op) (uint64, bool) {
	return s.Y.Predecessor(x)
}

// LockedTreapSet adapts the coarse-locked treap.
type LockedTreapSet struct{ S *lockedset.Set }

// Name implements Set.
func (s LockedTreapSet) Name() string { return "treap+lock" }

// Insert implements Set.
func (s LockedTreapSet) Insert(key uint64, _ *stats.Op) bool { return s.S.Insert(key) }

// Delete implements Set.
func (s LockedTreapSet) Delete(key uint64, _ *stats.Op) bool { return s.S.Delete(key) }

// Contains implements Set.
func (s LockedTreapSet) Contains(key uint64, _ *stats.Op) bool { return s.S.Contains(key) }

// Predecessor implements Set.
func (s LockedTreapSet) Predecessor(x uint64, _ *stats.Op) (uint64, bool) {
	return s.S.Predecessor(x)
}

// Prefill inserts n spread keys and returns them.
func Prefill(s Set, n int, w uint8) []uint64 {
	keys := workload.SpreadKeys(n, w)
	for _, k := range keys {
		s.Insert(k, nil)
	}
	return keys
}

// MeasureSteps runs ops sequential operations of the given kind against s
// and returns the mean stats per op.
func MeasureSteps(s Set, gen workload.KeyGen, mix workload.Mix, ops int, seed int64) stats.Op {
	rng := rand.New(rand.NewSource(seed))
	var total stats.Op
	for i := 0; i < ops; i++ {
		var c stats.Op
		k := gen.Next(rng)
		switch mix.Pick(rng) {
		case workload.OpInsert:
			s.Insert(k, &c)
		case workload.OpDelete:
			s.Delete(k, &c)
		case workload.OpContains:
			s.Contains(k, &c)
		default:
			s.Predecessor(k, &c)
		}
		total.Add(c)
	}
	return total
}

// ThroughputResult reports a concurrent run.
type ThroughputResult struct {
	Ops      int
	Elapsed  time.Duration
	Steps    stats.Op   // aggregate across workers
	Lat      stats.Hist // sampled per-op latencies (1 in 64 ops timed)
	OpsPerMs float64
}

// RunConcurrent launches workers goroutines for approximately d, each
// executing the mix against s, and reports aggregate throughput, step
// counts and sampled latency. Each worker times the first operation of
// every 64-op inner loop — a fixed 1/64 sampling rate, cheap enough
// not to perturb the throughput being measured while filling the
// histogram at ~15k samples per million ops.
func RunConcurrent(s Set, gen workload.KeyGen, mix workload.Mix, workers int, d time.Duration, seed int64) ThroughputResult {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   int
		steps   stats.Op
		lat     stats.Hist
		stopped = make(chan struct{})
	)
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)*7919))
			var local stats.Op
			var localLat stats.Hist
			ops := 0
			for {
				select {
				case <-stopped:
					mu.Lock()
					total += ops
					steps.Add(local)
					lat.Merge(localLat)
					mu.Unlock()
					return
				default:
				}
				for i := 0; i < 64; i++ {
					var c stats.Op
					k := gen.Next(rng)
					var t0 time.Time
					if i == 0 {
						t0 = time.Now()
					}
					switch mix.Pick(rng) {
					case workload.OpInsert:
						s.Insert(k, &c)
					case workload.OpDelete:
						s.Delete(k, &c)
					case workload.OpContains:
						s.Contains(k, &c)
					default:
						s.Predecessor(k, &c)
					}
					if i == 0 {
						localLat.Record(int64(time.Since(t0)))
					}
					local.Add(c)
					ops++
				}
			}
		}(g)
	}
	time.Sleep(d)
	close(stopped)
	wg.Wait()
	elapsed := time.Since(start)
	return ThroughputResult{
		Ops:      total,
		Elapsed:  elapsed,
		Steps:    steps,
		Lat:      lat,
		OpsPerMs: float64(total) / float64(elapsed.Milliseconds()+1),
	}
}

// F formats a float compactly.
func F(v float64) string { return fmt.Sprintf("%.1f", v) }

// F2 formats with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// I formats an int.
func I(v int) string { return fmt.Sprintf("%d", v) }

// Us formats a nanosecond latency as microseconds with one decimal.
func Us(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }

// Q returns the histogram's p'th quantile formatted in microseconds.
func Q(h stats.Hist, p float64) string { return Us(h.Quantile(p)) }
