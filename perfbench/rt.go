package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// This file reads the counters the Go runtime and the kernel already
// keep: runtime/metrics for the allocator, GC, mutexes and scheduler,
// and /proc/self/io for syscalls.

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

type rtSample struct {
	allocObjects, allocBytes, liveBytes  float64
	gcCPU, totalCPU, gcCycles, mutexWait float64
	sched                                *metrics.Float64Histogram
}

func sampleRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	out := rtSample{
		allocObjects: num(0), allocBytes: num(1), liveBytes: num(2),
		gcCPU: num(3), totalCPU: num(4), gcCycles: num(5), mutexWait: num(6),
	}
	if s[7].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[7].Value.Float64Histogram()
	}
	return out
}

// rtDelta is the runtime's activity over one window.
type rtDelta struct {
	allocObjects, allocBytes             float64
	gcCPU, totalCPU, gcCycles, mutexWait float64
	schedP99                             float64 // seconds
}

func (a rtSample) sub(b rtSample) rtDelta {
	d := rtDelta{
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
		gcCycles:     a.gcCycles - b.gcCycles,
		mutexWait:    a.mutexWait - b.mutexWait,
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		counts := make([]uint64, len(a.sched.Counts))
		var n uint64
		for i := range counts {
			counts[i] = a.sched.Counts[i] - b.sched.Counts[i]
			n += counts[i]
		}
		rank := uint64(math.Ceil(0.99 * float64(n)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if n > 0 && seen >= rank {
				// Buckets[i+1] is bucket i's upper bound; the last one is +Inf.
				d.schedP99 = a.sched.Buckets[i+1]
				if math.IsInf(d.schedP99, 1) {
					d.schedP99 = a.sched.Buckets[i]
				}
				break
			}
		}
	}
	return d
}

// layers returns the runtime layer's per-layer metrics for a window of
// ops key-ops.
func (d rtDelta) layers(ops uint64) map[string]float64 {
	n := float64(max(ops, 1))
	gcFrac := 0.0
	if d.totalCPU > 0 {
		gcFrac = d.gcCPU / d.totalCPU
	}
	return map[string]float64{
		"runtime.alloc_bytes_per_op":    d.allocBytes / n,
		"runtime.gc_cpu_frac":           gcFrac,
		"runtime.gc_cycles":             d.gcCycles,
		"runtime.mutex_wait_us_per_kop": d.mutexWait * 1e6 / (n / 1000),
		"runtime.sched_wait_p99_us":     d.schedP99 * 1e6,
	}
}

// readProcIO returns this process's read- and write-class syscall
// count (syscr+syscw); zero where /proc/self/io is unavailable.
func readProcIO() float64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	var n float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if ok && (k == "syscr" || k == "syscw") {
			c, _ := strconv.ParseFloat(strings.TrimSpace(v), 64) // malformed reads as 0
			n += c
		}
	}
	return n
}
