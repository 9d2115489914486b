package skiptrie

import (
	"expvar"
	"fmt"
	"io"
	"strconv"

	"skiptrie/internal/stats"
)

// This file implements the dependency-free metric exporters: Expvar
// (the standard library's JSON variable registry) and WriteProm (the
// Prometheus text exposition format, hand-encoded — pulling in a client
// library for one stable text format would be this package's only
// dependency). Both render the same MetricsSnapshot a caller could take
// by hand; the exporters exist so hooking a store into an existing
// scrape path is one line.

// Expvar returns the collector as an expvar.Func for the standard
// /debug/vars endpoint: publish it once with
//
//	expvar.Publish("skiptrie", m.Expvar())
//
// and every scrape renders a fresh MetricsSnapshot as JSON.
func (m *Metrics) Expvar() expvar.Func {
	return expvar.Func(func() any { return m.Snapshot() })
}

// promWriter accumulates the first write error so the encoder body
// stays a straight-line list of emit calls.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// header emits the HELP/TYPE preamble for one metric family.
func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// counter emits one family of unlabeled samples.
func (p *promWriter) counter(name, help string, v uint64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.printf("%s %s\n", name, formatProm(v))
}

// formatProm renders a float sample value the way Prometheus parsers
// expect (shortest round-trip representation; integers stay bare).
func formatProm(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm writes the collector's current state to w in the
// Prometheus text exposition format (version 0.0.4): every counter,
// gauge and latency histogram a MetricsSnapshot carries, under the
// skiptrie_ prefix. Latency histograms use native Prometheus histogram
// series (cumulative _bucket{le=...}, _sum, _count) with bucket bounds
// in seconds, so `histogram_quantile` works directly on the scrape.
// All series are always present — a kind with no samples exports zero
// — which keeps scrapes append-only for dashboards.
func (m *Metrics) WriteProm(w io.Writer) error {
	sn := m.Snapshot()
	p := &promWriter{w: w}

	p.header("skiptrie_ops_total", "Operations recorded, by kind.", "counter")
	for k := OpKind(0); k < numOpKinds; k++ {
		p.printf("skiptrie_ops_total{kind=%q} %d\n", k.String(), sn.Ops[k])
	}
	p.header("skiptrie_steps_total", "Total structure steps (hops+CAS+probes), by kind.", "counter")
	for k := OpKind(0); k < numOpKinds; k++ {
		p.printf("skiptrie_steps_total{kind=%q} %d\n", k.String(), sn.Steps[k])
	}
	p.counter("skiptrie_hops_total", "Pointer traversals.", sn.Hops)
	p.counter("skiptrie_cas_total", "CAS attempts.", sn.CAS)
	p.counter("skiptrie_hash_probes_total", "X-fast trie hash-table operations.", sn.Probes)
	p.counter("skiptrie_trie_touches_total", "Operations that modified the x-fast trie.", sn.Touches)

	r := sn.Reshard
	p.counter("skiptrie_reshard_splits_total", "Shard splits completed.", r.Splits)
	p.counter("skiptrie_reshard_merges_total", "Shard merges completed.", r.Merges)
	p.counter("skiptrie_reshard_moved_keys_total", "Keys migrated by splits and merges.", r.MovedKeys)
	p.header("skiptrie_reshard_migrate_seconds_total", "Wall time spent in shard migrations.", "counter")
	p.printf("skiptrie_reshard_migrate_seconds_total %s\n", formatProm(r.MigrateTime.Seconds()))
	p.header("skiptrie_reshard_warm_copy_seconds_total", "Migration time in the source-live warm-copy phase.", "counter")
	p.printf("skiptrie_reshard_warm_copy_seconds_total %s\n", formatProm(r.WarmCopyTime.Seconds()))
	p.header("skiptrie_reshard_resync_seconds_total", "Migration time in the seal and journal-replay phases.", "counter")
	p.printf("skiptrie_reshard_resync_seconds_total %s\n", formatProm(r.ResyncTime.Seconds()))
	p.gauge("skiptrie_shard_skew", "Last sampled max/mean shard-length skew.", r.Skew)

	c := sn.CDC
	p.counter("skiptrie_leaked_pins_total", "Snapshot/watcher handles reclaimed by GC without Close.", c.LeakedPins)
	p.counter("skiptrie_diffs_total", "Snapshot diffs completed.", c.Diffs)
	p.counter("skiptrie_diff_events_total", "Events emitted by snapshot diffs.", c.DiffEvents)
	p.counter("skiptrie_watch_batches_total", "Watch batches delivered.", c.WatchBatches)
	p.counter("skiptrie_watch_events_total", "Events across delivered Watch batches.", c.WatchEvents)
	p.counter("skiptrie_watch_lagged_total", "Watch windows deferred because the subscriber lagged.", c.WatchLagged)
	p.counter("skiptrie_watch_lagged_events_total", "Events across deferred Watch windows.", c.WatchLaggedEvents)
	p.counter("skiptrie_dumps_total", "Dump streams completed.", c.Dumps)
	p.counter("skiptrie_dump_entries_total", "Entries written across dump streams.", c.DumpEntries)
	p.counter("skiptrie_restores_total", "Restore/apply streams completed.", c.Restores)
	p.counter("skiptrie_restore_entries_total", "Entries applied across restore streams.", c.RestoreEntries)

	p.gauge("skiptrie_live_pins", "Snapshot, watcher and shard-migration epoch pins currently held.", float64(sn.LivePins))
	p.gauge("skiptrie_oldest_pin_age_seconds", "Age of the longest-held live pin.", sn.OldestPinAge.Seconds())
	p.gauge("skiptrie_retained_nodes", "Dead nodes retained for pinned epochs.", float64(sn.RetainedNodes))
	p.gauge("skiptrie_journal_segments", "Live change-journal segments.", float64(sn.JournalSegments))

	p.header("skiptrie_op_latency_seconds", "Sampled operation latency (WithLatencySampling).", "histogram")
	for k := OpKind(0); k < numOpKinds; k++ {
		h := sn.Latency[k]
		kind := k.String()
		cum := uint64(0)
		for i := 0; i < histogramBuckets-1; i++ {
			cum += h.Counts[i]
			le := formatProm(float64(stats.HistUpper(i)) / 1e9)
			p.printf("skiptrie_op_latency_seconds_bucket{kind=%q,le=%q} %d\n", kind, le, cum)
		}
		p.printf("skiptrie_op_latency_seconds_bucket{kind=%q,le=\"+Inf\"} %d\n", kind, h.Count)
		p.printf("skiptrie_op_latency_seconds_sum{kind=%q} %s\n", kind, formatProm(h.Sum.Seconds()))
		p.printf("skiptrie_op_latency_seconds_count{kind=%q} %d\n", kind, h.Count)
	}
	return p.err
}
