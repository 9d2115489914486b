package skiptrie

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"skiptrie/internal/gid"
	"skiptrie/internal/stats"
	"skiptrie/internal/uintbits"
)

// OpKind labels the operation class a metric sample belongs to.
type OpKind uint8

// Operation kinds reported by Metrics.
const (
	OpPredecessor OpKind = iota
	OpInsert
	OpDelete
	OpContains
	OpSuccessor
	numOpKinds
)

// String returns the kind's name.
func (k OpKind) String() string {
	switch k {
	case OpPredecessor:
		return "predecessor"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpContains:
		return "contains"
	case OpSuccessor:
		return "successor"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

const metricStripes = 16 // power of two

// Metrics aggregates per-operation step counts across goroutines.
// Counters are striped by a goroutine hash (internal/gid) so concurrent
// recording does not serialize on a single cache line — including under
// hot-key workloads, where the key-hash striping this replaces bounced
// every recorder on the hot key's one stripe. A single Metrics may be
// shared by several structures. The zero value is ready to use.
//
// With WithLatencySampling the collector additionally records sampled
// per-operation wall-clock latencies into per-kind log-bucketed
// histograms (MetricsSnapshot.Latency); without it the latency paths
// are two nil checks. Structures the collector is attached to also
// register their retention gauges (pins, retained nodes, journal
// segments) with it, read fresh at Snapshot time through weak
// references — a shared Metrics never keeps a dropped structure alive.
type Metrics struct {
	stripes [metricStripes]metricStripe
	reshard reshardCounters
	cdc     cdcCounters

	// lat is the optional latency sampler (WithLatencySampling); nil
	// means disabled and makes latStart/recordLatency two-branch no-ops.
	lat atomic.Pointer[latencySampler]

	// gaugeFns are the retention-gauge sources registered by the
	// structures this collector is attached to. Each returns ok=false
	// once its structure has been garbage-collected and is then
	// dropped.
	gaugeMu  sync.Mutex
	gaugeFns []func() (gaugeSample, bool)
}

// cdcCounters aggregates the change-data-capture and persistence
// subsystem's activity: snapshot diffs, Watch deliveries, dump/restore
// traffic, and the leak guard's finalizer fires. Written once per
// diff/batch/stream, so they are not striped.
type cdcCounters struct {
	leakedPins        atomic.Uint64
	diffs             atomic.Uint64
	diffEvents        atomic.Uint64
	watchBatches      atomic.Uint64
	watchEvents       atomic.Uint64
	watchLagged       atomic.Uint64
	watchLaggedEvents atomic.Uint64
	dumps             atomic.Uint64
	dumpEntries       atomic.Uint64
	restores          atomic.Uint64
	restoreEntries    atomic.Uint64
}

// reshardCounters aggregates the resharding subsystem's work: explicit
// and balancer-driven splits/merges, keys moved by migrations, total
// migration wall time, and the most recent residency-skew sample. They
// are written rarely (once per reshard or balancer tick) so they are
// not striped.
type reshardCounters struct {
	splits, merges, moved atomic.Uint64
	nanos                 atomic.Int64
	warmNanos             atomic.Int64  // phase 1: source-live warm copy
	resyncNanos           atomic.Int64  // phases 2-3: seal + dirty-delta replay
	skewBits              atomic.Uint64 // float64 bits of the last sampled skew
}

type metricStripe struct {
	ops     [numOpKinds]atomic.Uint64
	steps   [numOpKinds]atomic.Uint64
	hops    atomic.Uint64
	cas     atomic.Uint64
	probes  atomic.Uint64
	touches atomic.Uint64
	// The 80-B gap after the 112 B of counters keeps any two stripes'
	// counters off a common 64-B line wherever the allocator places
	// Metrics (TestMetricStripeLayout).
	_ [80]byte
}

// op returns a fresh step counter when the collector is non-nil, so
// call sites can sample unconditionally (a nil collector records
// nothing and costs nothing).
func (m *Metrics) op() *stats.Op {
	if m == nil {
		return nil
	}
	return new(stats.Op)
}

// record folds one finished operation into the collector. Nil receivers
// and nil ops are ignored, so callers can record unconditionally.
func (m *Metrics) record(kind OpKind, op *stats.Op) {
	m.recordN(kind, 1, op)
}

// recordN folds one finished batched operation covering n keys into the
// collector: n operations of the given kind whose combined step counts
// are op's totals (so AvgSteps stays a per-key quantity). Nil receivers
// and nil ops are ignored.
func (m *Metrics) recordN(kind OpKind, n uint64, op *stats.Op) {
	if m == nil || op == nil || n == 0 {
		return
	}
	s := &m.stripes[gid.Hash()&(metricStripes-1)]
	s.ops[kind].Add(n)
	s.steps[kind].Add(op.Steps())
	s.hops.Add(op.Hops)
	s.cas.Add(op.CAS)
	s.probes.Add(op.HashProbes)
	if op.TrieTouch {
		s.touches.Add(1)
	}
}

// recordReshard folds one completed shard split or merge into the
// collector, with its wall time split into the warm-copy and
// seal+resync phases. Nil receivers are ignored.
func (m *Metrics) recordReshard(split bool, moved int, d, warm, resync time.Duration) {
	if m == nil {
		return
	}
	if split {
		m.reshard.splits.Add(1)
	} else {
		m.reshard.merges.Add(1)
	}
	m.reshard.moved.Add(uint64(moved))
	m.reshard.nanos.Add(int64(d))
	m.reshard.warmNanos.Add(int64(warm))
	m.reshard.resyncNanos.Add(int64(resync))
}

// setSkew records the latest residency-skew sample (busiest shard's key
// count over the per-shard mean). Nil receivers are ignored.
func (m *Metrics) setSkew(v float64) {
	if m == nil {
		return
	}
	m.reshard.skewBits.Store(math.Float64bits(v))
}

// leakedPin records one snapshot or watcher handle reclaimed by the
// garbage collector without Close. Nil receivers are ignored.
func (m *Metrics) leakedPin() {
	if m != nil {
		m.cdc.leakedPins.Add(1)
	}
}

// recordDiff folds one completed snapshot diff that emitted n events.
func (m *Metrics) recordDiff(n uint64) {
	if m != nil {
		m.cdc.diffs.Add(1)
		m.cdc.diffEvents.Add(n)
	}
}

// recordWatch folds one delivered (or, with lagged, deferred) Watch
// batch of n events. Deferred windows record their size too, so lag is
// measurable in events, not just window counts.
func (m *Metrics) recordWatch(n uint64, lagged bool) {
	if m == nil {
		return
	}
	if lagged {
		m.cdc.watchLagged.Add(1)
		m.cdc.watchLaggedEvents.Add(n)
		return
	}
	m.cdc.watchBatches.Add(1)
	m.cdc.watchEvents.Add(n)
}

// recordDump folds one completed dump stream of n entries.
func (m *Metrics) recordDump(n uint64) {
	if m != nil {
		m.cdc.dumps.Add(1)
		m.cdc.dumpEntries.Add(n)
	}
}

// recordRestore folds one completed restore/apply of n entries.
func (m *Metrics) recordRestore(n uint64) {
	if m != nil {
		m.cdc.restores.Add(1)
		m.cdc.restoreEntries.Add(n)
	}
}

// latBase anchors the monotonic clock latency samples are measured
// with: time.Since(latBase) costs one monotonic clock read and zero
// allocations, and offsets from a fixed base stay well inside int64.
var latBase = time.Now()

// latencySampler is the WithLatencySampling state: a striped xorshift
// sampling gate in front of per-kind concurrent histograms. It is
// installed behind an atomic pointer so the disabled path — the default
// — costs one pointer load and a branch per operation.
type latencySampler struct {
	thr  uint64 // sample when the xorshift draw is <= thr
	rate float64
	rng  [metricStripes]latRNG
	hist [numOpKinds]stats.LatHist
}

// latRNG is one padded stripe of the sampler's xorshift state, indexed
// by goroutine hash exactly like the metric stripes. Plain atomic
// load/store (no CAS): two goroutines racing one stripe may reuse a
// draw, which biases nothing measurable and keeps the gate at a few
// arithmetic instructions.
type latRNG struct {
	s atomic.Uint64
	_ [56]byte
}

func newLatencySampler(rate float64) *latencySampler {
	s := &latencySampler{rate: rate}
	if rate >= 1 {
		s.thr = ^uint64(0)
	} else {
		s.thr = uint64(rate * float64(1<<63) * 2)
	}
	for i := range s.rng {
		s.rng[i].s.Store(uintbits.Mix64(0x5a77_1e5e_ed00 + uint64(i)))
	}
	return s
}

// sample draws the sampling gate: true for ~rate of calls.
func (s *latencySampler) sample() bool {
	r := &s.rng[gid.Hash()&(metricStripes-1)]
	x := r.s.Load()
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.s.Store(x)
	return x <= s.thr
}

// enableLatency installs a latency sampler. The first installation
// wins, so several structures sharing one collector keep accumulating
// into the same histograms; a different rate on a later constructor is
// ignored.
func (m *Metrics) enableLatency(rate float64) {
	m.lat.CompareAndSwap(nil, newLatencySampler(rate))
}

// latStart opens a latency measurement: it returns a nonzero monotonic
// timestamp for the sampled fraction of calls and 0 otherwise (also on
// nil collectors and when sampling is off), which recordLatency treats
// as "not sampled". Call sites bracket the operation with
// latStart/recordLatency unconditionally.
func (m *Metrics) latStart() int64 {
	if m == nil {
		return 0
	}
	s := m.lat.Load()
	if s == nil || !s.sample() {
		return 0
	}
	return int64(time.Since(latBase))
}

// recordLatency closes a latency measurement opened by latStart,
// folding the elapsed wall time into kind's histogram. t0 == 0 (not
// sampled) is a no-op.
func (m *Metrics) recordLatency(kind OpKind, t0 int64) {
	if t0 == 0 {
		return
	}
	s := m.lat.Load()
	if s == nil {
		return
	}
	s.hist[kind].Record(int64(time.Since(latBase)) - t0)
}

// recordLatencyN closes a latency measurement over a batch of n keys,
// recording one sample of the per-key latency (total/n) so batch and
// point samples stay comparable.
func (m *Metrics) recordLatencyN(kind OpKind, n int, t0 int64) {
	if t0 == 0 || n <= 0 {
		return
	}
	s := m.lat.Load()
	if s == nil {
		return
	}
	s.hist[kind].Record((int64(time.Since(latBase)) - t0) / int64(n))
}

// gaugeSample is one structure's retention-gauge reading.
type gaugeSample struct {
	livePins        int
	oldestPinAge    time.Duration
	retainedNodes   int
	journalSegments int
}

// registerGauges attaches a retention-gauge source. The source must
// hold its structure weakly and report ok=false once it is gone; dead
// sources are dropped at the next Snapshot. Nil receivers ignore the
// registration.
func (m *Metrics) registerGauges(fn func() (gaugeSample, bool)) {
	if m == nil || fn == nil {
		return
	}
	m.gaugeMu.Lock()
	m.gaugeFns = append(m.gaugeFns, fn)
	m.gaugeMu.Unlock()
}

// attachGauges registers p as a retention-gauge source through a weak
// pointer, so a Metrics collector never keeps the structures it
// observes alive: once p is collected the source reports dead and is
// pruned at the next Snapshot.
func attachGauges[T any](m *Metrics, p *T, read func(*T) gaugeSample) {
	if m == nil {
		return
	}
	w := weak.Make(p)
	m.registerGauges(func() (gaugeSample, bool) {
		t := w.Value()
		if t == nil {
			return gaugeSample{}, false
		}
		return read(t), true
	})
}

// readGauges sums the live sources (dropping dead ones): pins, retained
// nodes and journal segments add across structures, oldest pin age is
// the maximum.
func (m *Metrics) readGauges() gaugeSample {
	var out gaugeSample
	m.gaugeMu.Lock()
	defer m.gaugeMu.Unlock()
	kept := m.gaugeFns[:0]
	for _, fn := range m.gaugeFns {
		g, ok := fn()
		if !ok {
			continue
		}
		kept = append(kept, fn)
		out.livePins += g.livePins
		out.retainedNodes += g.retainedNodes
		out.journalSegments += g.journalSegments
		if g.oldestPinAge > out.oldestPinAge {
			out.oldestPinAge = g.oldestPinAge
		}
	}
	for i := len(kept); i < len(m.gaugeFns); i++ {
		m.gaugeFns[i] = nil
	}
	m.gaugeFns = kept
	return out
}

// ReshardSnapshot is the resharding section of a MetricsSnapshot.
type ReshardSnapshot struct {
	Splits       uint64        // shard splits completed
	Merges       uint64        // shard merges completed
	MovedKeys    uint64        // keys migrated (warm copies + delta resyncs)
	MigrateTime  time.Duration // total wall time spent in migrations
	WarmCopyTime time.Duration // migration time in the source-live warm-copy phase
	ResyncTime   time.Duration // migration time in the seal + dirty-replay phases
	Skew         float64       // last sampled max/mean shard-length skew (0 if never sampled)
}

// MetricsSnapshot is a point-in-time aggregation of a Metrics
// collector. (The name leaves Snapshot free for the data snapshot
// handle returned by Map.Snapshot and Sharded.Snapshot.)
type MetricsSnapshot struct {
	Ops     [numOpKinds]uint64 // operations by kind
	Steps   [numOpKinds]uint64 // total steps by kind
	Hops    uint64             // pointer traversals
	CAS     uint64             // CAS attempts
	DCSS    uint64             // always 0: every update is a CAS, counted in CAS
	Probes  uint64             // hash-table operations
	Touches uint64             // operations that modified the x-fast trie
	Reshard ReshardSnapshot    // resharding activity (Sharded only)
	CDC     CDCSnapshot        // change-data-capture and persistence activity

	// Latency holds the per-kind sampled latency histograms. All-zero
	// unless the collector was attached with WithLatencySampling.
	Latency [numOpKinds]Histogram

	// Retention gauges, read at Snapshot time from every structure the
	// collector is attached to (summed; OldestPinAge is the maximum).
	// Unlike the counters these are instantaneous values, not
	// monotone accumulations, so Sub keeps the newer reading.
	LivePins        int           // snapshot/watcher epoch pins currently held
	OldestPinAge    time.Duration // age of the longest-held live pin (0 when unpinned)
	RetainedNodes   int           // dead nodes retained for pinned epochs
	JournalSegments int           // live change-journal segments
}

// CDCSnapshot is the change-data-capture section of a MetricsSnapshot.
type CDCSnapshot struct {
	LeakedPins        uint64 // snapshot/watcher handles GC-reclaimed without Close
	Diffs             uint64 // snapshot diffs completed
	DiffEvents        uint64 // events emitted by snapshot diffs
	WatchBatches      uint64 // Watch batches delivered
	WatchEvents       uint64 // events across delivered Watch batches
	WatchLagged       uint64 // Watch windows deferred because the subscriber lagged
	WatchLaggedEvents uint64 // events across deferred Watch windows (before coalescing)
	Dumps             uint64 // dump streams completed
	DumpEntries       uint64 // entries written across dump streams
	Restores          uint64 // restore/apply streams completed
	RestoreEntries    uint64 // entries applied across restore streams
}

// Snapshot sums the stripes. It is safe to call concurrently with
// recording; the result is a consistent-enough point-in-time view.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var out MetricsSnapshot
	if m == nil {
		return out
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		for k := 0; k < int(numOpKinds); k++ {
			out.Ops[k] += s.ops[k].Load()
			out.Steps[k] += s.steps[k].Load()
		}
		out.Hops += s.hops.Load()
		out.CAS += s.cas.Load()
		out.Probes += s.probes.Load()
		out.Touches += s.touches.Load()
	}
	out.Reshard = ReshardSnapshot{
		Splits:       m.reshard.splits.Load(),
		Merges:       m.reshard.merges.Load(),
		MovedKeys:    m.reshard.moved.Load(),
		MigrateTime:  time.Duration(m.reshard.nanos.Load()),
		WarmCopyTime: time.Duration(m.reshard.warmNanos.Load()),
		ResyncTime:   time.Duration(m.reshard.resyncNanos.Load()),
		Skew:         math.Float64frombits(m.reshard.skewBits.Load()),
	}
	out.CDC = CDCSnapshot{
		LeakedPins:        m.cdc.leakedPins.Load(),
		Diffs:             m.cdc.diffs.Load(),
		DiffEvents:        m.cdc.diffEvents.Load(),
		WatchBatches:      m.cdc.watchBatches.Load(),
		WatchEvents:       m.cdc.watchEvents.Load(),
		WatchLagged:       m.cdc.watchLagged.Load(),
		WatchLaggedEvents: m.cdc.watchLaggedEvents.Load(),
		Dumps:             m.cdc.dumps.Load(),
		DumpEntries:       m.cdc.dumpEntries.Load(),
		Restores:          m.cdc.restores.Load(),
		RestoreEntries:    m.cdc.restoreEntries.Load(),
	}
	if s := m.lat.Load(); s != nil {
		for k := 0; k < int(numOpKinds); k++ {
			out.Latency[k] = histogramFrom(s.hist[k].Snapshot())
		}
	}
	g := m.readGauges()
	out.LivePins = g.livePins
	out.OldestPinAge = g.oldestPinAge
	out.RetainedNodes = g.retainedNodes
	out.JournalSegments = g.journalSegments
	return out
}

// TotalOps returns the number of recorded operations across all kinds.
func (sn MetricsSnapshot) TotalOps() uint64 {
	var n uint64
	for _, v := range sn.Ops {
		n += v
	}
	return n
}

// AvgSteps returns the mean steps per operation of the given kind, or 0
// if none were recorded. This is the unit of the paper's amortized
// complexity claims.
func (sn MetricsSnapshot) AvgSteps(kind OpKind) float64 {
	if sn.Ops[kind] == 0 {
		return 0
	}
	return float64(sn.Steps[kind]) / float64(sn.Ops[kind])
}

// TouchRate returns the fraction of recorded operations that modified the
// x-fast trie; the paper predicts about 1/log u for updates.
func (sn MetricsSnapshot) TouchRate() float64 {
	if n := sn.TotalOps(); n > 0 {
		return float64(sn.Touches) / float64(n)
	}
	return 0
}

// histogramBuckets is the public histogram's bucket count (two log
// sub-buckets per octave over ~64ns..17s plus overflow; see
// internal/stats for the exact layout).
const histogramBuckets = stats.HistBuckets

// Histogram is a mergeable latency histogram: log-spaced buckets (two
// per octave) with per-quantile resolution of half an octave. It is a
// plain value — snapshots can be subtracted (Sub) to isolate a window
// and merged (Merge) across collectors — with the common percentiles
// precomputed.
type Histogram struct {
	// Counts holds the per-bucket sample counts; bucket i covers
	// [BucketUpper(i-1), BucketUpper(i)).
	Counts [histogramBuckets]uint64
	// Count and Sum are the total samples and their summed duration.
	Count uint64
	Sum   time.Duration
	// P50..P999 are precomputed Quantile values, refreshed by Merge and
	// Sub.
	P50, P90, P99, P999 time.Duration
}

// histogramFrom converts an internal histogram snapshot.
func histogramFrom(h stats.Hist) Histogram {
	out := Histogram{Count: h.Count, Sum: time.Duration(h.Sum)}
	out.Counts = h.Counts
	out.refresh()
	return out
}

// hist converts back to the internal value form.
func (h Histogram) hist() stats.Hist {
	return stats.Hist{Counts: h.Counts, Count: h.Count, Sum: int64(h.Sum)}
}

func (h *Histogram) refresh() {
	h.P50 = h.Quantile(0.50)
	h.P90 = h.Quantile(0.90)
	h.P99 = h.Quantile(0.99)
	h.P999 = h.Quantile(0.999)
}

// Quantile returns the p'th latency quantile (p in [0, 1]): the upper
// bound of the bucket holding the rank-⌈p·Count⌉ sample, so the true
// quantile is overestimated by at most half an octave. Empty histograms
// return 0.
func (h Histogram) Quantile(p float64) time.Duration {
	return time.Duration(h.hist().Quantile(p))
}

// Mean returns the mean sampled latency, 0 when empty.
func (h Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// BucketUpper returns bucket i's exclusive upper bound (the overflow
// bucket reports a bound past any representable duration).
func (h Histogram) BucketUpper(i int) time.Duration {
	return time.Duration(stats.HistUpper(i))
}

// Merge accumulates o into h and refreshes the percentile fields.
func (h *Histogram) Merge(o Histogram) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
	h.refresh()
}

// Sub returns the histogram of samples recorded after prev was taken
// (prev must be an earlier snapshot of the same collector), with the
// percentile fields recomputed over the window.
func (h Histogram) Sub(prev Histogram) Histogram {
	out := histogramFrom(h.hist().Sub(prev.hist()))
	return out
}

// Sub returns the activity between prev and sn, two snapshots of the
// same collector with prev taken first: counters and histograms
// subtract, while the instantaneous readings — the retention gauges and
// the skew sample — keep sn's (newer) values. This is the delta helper
// for windowed reporting: snapshot, run a phase, snapshot again,
// Sub, print.
func (sn MetricsSnapshot) Sub(prev MetricsSnapshot) MetricsSnapshot {
	out := sn
	for k := 0; k < int(numOpKinds); k++ {
		out.Ops[k] -= prev.Ops[k]
		out.Steps[k] -= prev.Steps[k]
		out.Latency[k] = sn.Latency[k].Sub(prev.Latency[k])
	}
	out.Hops -= prev.Hops
	out.CAS -= prev.CAS
	out.Probes -= prev.Probes
	out.Touches -= prev.Touches
	out.Reshard.Splits -= prev.Reshard.Splits
	out.Reshard.Merges -= prev.Reshard.Merges
	out.Reshard.MovedKeys -= prev.Reshard.MovedKeys
	out.Reshard.MigrateTime -= prev.Reshard.MigrateTime
	out.Reshard.WarmCopyTime -= prev.Reshard.WarmCopyTime
	out.Reshard.ResyncTime -= prev.Reshard.ResyncTime
	out.CDC.LeakedPins -= prev.CDC.LeakedPins
	out.CDC.Diffs -= prev.CDC.Diffs
	out.CDC.DiffEvents -= prev.CDC.DiffEvents
	out.CDC.WatchBatches -= prev.CDC.WatchBatches
	out.CDC.WatchEvents -= prev.CDC.WatchEvents
	out.CDC.WatchLagged -= prev.CDC.WatchLagged
	out.CDC.WatchLaggedEvents -= prev.CDC.WatchLaggedEvents
	out.CDC.Dumps -= prev.CDC.Dumps
	out.CDC.DumpEntries -= prev.CDC.DumpEntries
	out.CDC.Restores -= prev.CDC.Restores
	out.CDC.RestoreEntries -= prev.CDC.RestoreEntries
	return out
}

// String renders the snapshot as a compact multi-line report: per-kind
// op counts with mean steps, the step-component totals, any sampled
// latency percentiles, and — when non-zero — the reshard, CDC and
// retention-gauge sections.
func (sn MetricsSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops:")
	for k := OpKind(0); k < numOpKinds; k++ {
		if sn.Ops[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s %d (%.1f steps)", k, sn.Ops[k], sn.AvgSteps(k))
	}
	if sn.TotalOps() == 0 {
		fmt.Fprintf(&b, " none")
	}
	fmt.Fprintf(&b, "\nsteps: hops %d cas %d probes %d touches %d (rate %.4f)",
		sn.Hops, sn.CAS, sn.Probes, sn.Touches, sn.TouchRate())
	for k := OpKind(0); k < numOpKinds; k++ {
		h := sn.Latency[k]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nlatency[%s]: p50 %v p90 %v p99 %v p999 %v (n=%d, mean %v)",
			k, h.P50, h.P90, h.P99, h.P999, h.Count, h.Mean())
	}
	r := sn.Reshard
	if r.Splits|r.Merges|r.MovedKeys != 0 || r.Skew != 0 {
		fmt.Fprintf(&b, "\nreshard: splits %d merges %d moved %d migrate %v (warm %v resync %v) skew %.2f",
			r.Splits, r.Merges, r.MovedKeys, r.MigrateTime, r.WarmCopyTime, r.ResyncTime, r.Skew)
	}
	c := sn.CDC
	if c.Diffs|c.WatchBatches|c.WatchLagged|c.Dumps|c.Restores|c.LeakedPins != 0 {
		fmt.Fprintf(&b, "\ncdc: diffs %d (%d ev) watch %d (%d ev, %d lagged/%d ev) dumps %d (%d ent) restores %d (%d ent) leaked %d",
			c.Diffs, c.DiffEvents, c.WatchBatches, c.WatchEvents, c.WatchLagged, c.WatchLaggedEvents,
			c.Dumps, c.DumpEntries, c.Restores, c.RestoreEntries, c.LeakedPins)
	}
	if sn.LivePins != 0 || sn.RetainedNodes != 0 || sn.JournalSegments != 0 {
		fmt.Fprintf(&b, "\ngauges: pins %d (oldest %v) retained %d journal-segments %d",
			sn.LivePins, sn.OldestPinAge, sn.RetainedNodes, sn.JournalSegments)
	}
	return b.String()
}
