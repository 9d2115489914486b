package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"skiptrie"
)

// This file holds the traced pass's recording: spans taken around the
// benchmark's own calls into the program, and the lifecycle events the
// program reports through TraceHooks. Nothing here runs inside the
// program.

// spanEvery samples one in spanEvery in-process calls (and wire
// windows) for a span.
const spanEvery = 64

// base anchors every timestamp the benchmark takes.
var base = time.Now()

// nanotime is the monotonic clock in nanoseconds since base.
func nanotime() int64 { return int64(time.Since(base)) }

// span is one timed interval. Spans of one request share Req; a child
// names its parent's ID.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog is one worker's span buffer; only that worker appends.
type spanLog struct {
	spans []span
	next  uint64
}

func (l *spanLog) add(parent, req uint64, name string, start, end int64) uint64 {
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return l.next
}

// migration is one phase of one migration, from TraceHooks.Migration.
type migration struct {
	phase string
	keys  int
	dur   time.Duration
}

type tracer struct {
	logs [workers]spanLog

	mu         sync.Mutex
	migrations []migration
}

func newTracer() *tracer {
	t := &tracer{}
	for w := range t.logs {
		// IDs are unique across workers.
		t.logs[w].next = uint64(w) << 48
	}
	return t
}

// hooks returns the TraceHooks the traced pass attaches to an
// in-process structure.
func (t *tracer) hooks() skiptrie.TraceHooks {
	return skiptrie.TraceHooks{
		Migration: func(m skiptrie.MigrationTrace) {
			t.mu.Lock()
			t.migrations = append(t.migrations, migration{m.Phase, m.Keys, m.Duration})
			t.mu.Unlock()
		},
	}
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.logs {
		for _, s := range t.logs[i].spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerUnits names every per-layer metric a traced run prints, with its
// unit. A metric whose layer a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"xfast.probes_per_op":            "count",
	"skiplist.hops_per_op":           "count",
	"core.steps_per_get":             "count",
	"core.steps_per_ordered":         "count",
	"core.steps_per_write":           "count",
	"shard.route_ns_per_op":          "ns",
	"core.trie_touch_frac":           "frac",
	"xfast.levels_per_touch":         "count",
	"skiplist.hops_per_batched_key":  "count",
	"dcss.attempts_per_update":       "count",
	"dcss.retry_frac":                "frac",
	"shard.migrations":               "count",
	"shard.moved_keys_per_migration": "count",
	"shard.warm_copy_ms":             "ms",
	"shard.resync_us":                "us",
	"skiplist.pin_us":                "us",
	"skiplist.diff_ns_per_key":       "ns",
	"skiplist.retained_nodes_peak":   "count",
	"skiplist.journal_segments_peak": "count",
	"runtime.alloc_bytes_per_op":     "B",
	"runtime.gc_cpu_frac":            "frac",
	"runtime.gc_cycles":              "count",
	"runtime.mutex_wait_us_per_kop":  "us",
	"runtime.sched_wait_p99_us":      "us",
	"server.engine_us_per_req":       "us",
	"server.residual_us_per_req":     "us",
	"server.batched_set_frac":        "frac",
	"server.busy_frac":               "frac",
	"reshard.events_in_window":       "count",
	"wire.codec_ns_per_req":          "ns",
	"wire.syscalls_per_req":          "count",
	"trace.overhead_frac":            "frac",
}

// engineLayers derives the per-layer metrics a Metrics collector
// measures over a window.
func engineLayers(d skiptrie.MetricsSnapshot) map[string]float64 {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ops := d.TotalOps()
	updates := d.Ops[skiptrie.OpInsert] + d.Ops[skiptrie.OpDelete]
	ordered := d.Ops[skiptrie.OpPredecessor] + d.Ops[skiptrie.OpSuccessor]
	return map[string]float64{
		"xfast.probes_per_op":      ratio(d.Probes, ops),
		"skiplist.hops_per_op":     ratio(d.Hops, ops),
		"core.steps_per_get":       d.AvgSteps(skiptrie.OpContains),
		"core.steps_per_ordered":   ratio(d.Steps[skiptrie.OpPredecessor]+d.Steps[skiptrie.OpSuccessor], ordered),
		"core.steps_per_write":     ratio(d.Steps[skiptrie.OpInsert]+d.Steps[skiptrie.OpDelete], updates),
		"core.trie_touch_frac":     d.TouchRate(),
		"dcss.attempts_per_update": ratio(d.CAS+d.DCSS, updates),
	}
}
