package main

import (
	"math/bits"
	"slices"
)

// hist is the benchmark's per-call latency recorder: a log-linear
// histogram over nanoseconds. Values below 2^subBits are kept exactly;
// above that every power-of-two octave is cut into 2^subBits equal
// buckets, so a bucket is at most 1/128 (0.78%) of its lower bound
// wide. Every timed call is recorded (no sampling), and quantiles come
// from bucket midpoints. internal/stats.Hist is deliberately not used:
// its half-octave buckets make a p99 near a bucket bound flip by a
// third or more between runs.
type hist struct {
	counts [histGroups * subCount]uint64
	n      uint64
	sum    int64 // nanoseconds, for means
}

const (
	subBits    = 7
	subCount   = 1 << subBits
	histGroups = 40 - subBits + 1 // octaves up to 2^40 ns (~18 min)
	maxTracked = 1<<40 - 1
)

func (h *hist) record(ns int64) {
	v := uint64(max(ns, 0))
	if v > maxTracked {
		v = maxTracked
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += int64(v)
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	g := bits.Len64(v) - subBits // >= 1
	return g*subCount + int(v>>(g-1)) - subCount
}

// bucketMid returns the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	g, sub := i/subCount, i%subCount
	if g == 0 {
		return float64(sub)
	}
	width := uint64(1) << (g - 1)
	lower := uint64(subCount+sub) << (g - 1)
	return float64(lower) + float64(width)/2
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q'th quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.counts) - 1)
}

// Latency classes reported end to end.
const (
	classGet     = iota // point reads: Load / GET
	classOrdered        // Predecessor, Successor, Range / SCAN, SNAPSHOT-SCAN
	classWrite          // Store, Delete, StoreBatch / SET, DEL
	numClasses
)

var classNames = [numClasses]string{"get", "ordered", "write"}

// segStats is one worker's record of one measurement segment: a
// latency histogram per class, the key-ops completed and the wall time
// the segment took.
type segStats struct {
	lat  [numClasses]hist
	ops  uint64
	nsec int64
}

// windowStats folds segments into the end-to-end figures. Every window
// cuts each worker's op stream into the same number of equal segments,
// with the same mix of work in each. Per segment the throughput is the
// workers' key-ops over the slowest worker's time for its share, so a
// worker that runs ahead is not counted as extra throughput, and the
// quantiles come from the workers' merged histograms; each reported
// figure is the median over segments (pooled over every measured
// window), so a host hiccup that slows one segment does not move it.
type windowStats struct {
	throughput    float64
	segThroughput []float64
	p50, p99      [numClasses]float64 // microseconds
	samples       [numClasses]uint64
	ops           uint64
}

// summarize takes, per measured window, one []segStats per worker;
// segment s of every worker in a window covers the same stretch of the
// streams.
func summarize(windows ...[][]segStats) windowStats {
	var ws windowStats
	var p50, p99 [numClasses][]float64
	for _, workers := range windows {
		for s := range workers[0] {
			var merged [numClasses]hist
			var ops uint64
			var nsec int64
			for _, segs := range workers {
				seg := &segs[s]
				ops += seg.ops
				nsec = max(nsec, seg.nsec)
				for c := range merged {
					merged[c].merge(&seg.lat[c])
				}
			}
			ws.ops += ops
			ws.segThroughput = append(ws.segThroughput, float64(ops)/(float64(max(nsec, 1))/1e9))
			for c := range merged {
				ws.samples[c] += merged[c].n
				if merged[c].n > 0 {
					p50[c] = append(p50[c], merged[c].quantile(0.50)/1e3)
					p99[c] = append(p99[c], merged[c].quantile(0.99)/1e3)
				}
			}
		}
	}
	ws.throughput = median(ws.segThroughput)
	for c := range p50 {
		ws.p50[c] = median(p50[c])
		ws.p99[c] = median(p99[c])
	}
	return ws
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
