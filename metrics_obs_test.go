package skiptrie

import (
	"bytes"
	"errors"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWithLatencySamplingValidation pins the option's input contract:
// rates outside (0, 1] and sampling without a collector fail
// construction with ErrInvalidOption.
func TestWithLatencySamplingValidation(t *testing.T) {
	for _, rate := range []float64{0, -0.5, 1.5, math.NaN()} {
		_, err := NewMap[int](WithMetrics(&Metrics{}), WithLatencySampling(rate))
		if !errors.Is(err, ErrInvalidOption) {
			t.Errorf("rate %v: err = %v, want ErrInvalidOption", rate, err)
		}
	}
	if _, err := NewMap[int](WithLatencySampling(0.5)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("sampling without metrics: err = %v, want ErrInvalidOption", err)
	}
	if _, err := New(WithLatencySampling(0.5)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("set sampling without metrics: err = %v, want ErrInvalidOption", err)
	}
	if _, err := NewSharded[int](WithLatencySampling(0.5)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("sharded sampling without metrics: err = %v, want ErrInvalidOption", err)
	}
}

// TestLatencySampling records every operation (rate 1) and checks the
// per-kind histograms fill with plausible, ordered quantiles.
func TestLatencySampling(t *testing.T) {
	var met Metrics
	m, err := NewMap[int](WithMetrics(&met), WithLatencySampling(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := uint64(0); i < n; i++ {
		m.Store(i*3, int(i))
	}
	for i := uint64(0); i < n; i++ {
		m.Load(i * 3)
		m.Predecessor(i*3 + 1)
		m.Delete(i * 3)
	}
	sn := met.Snapshot()
	for _, k := range []OpKind{OpInsert, OpContains, OpPredecessor, OpDelete} {
		h := sn.Latency[k]
		if h.Count == 0 {
			t.Fatalf("Latency[%v].Count = 0, want samples", k)
		}
		if h.Count != sn.Ops[k] {
			t.Errorf("Latency[%v].Count = %d, Ops = %d; rate-1 sampling should time every op", k, h.Count, sn.Ops[k])
		}
		if h.P50 <= 0 || h.P50 > h.P90 || h.P90 > h.P99 || h.P99 > h.P999 {
			t.Errorf("Latency[%v] quantiles not ordered: p50 %v p90 %v p99 %v p999 %v", k, h.P50, h.P90, h.P99, h.P999)
		}
		if h.Mean() <= 0 || h.Mean() > time.Second {
			t.Errorf("Latency[%v].Mean = %v, implausible", k, h.Mean())
		}
	}
	// The histogram window helper: a delta over a quiet window is empty.
	sn2 := met.Snapshot()
	d := sn2.Sub(sn)
	if d.Latency[OpInsert].Count != 0 || d.Ops[OpInsert] != 0 {
		t.Errorf("quiet-window delta non-empty: %d ops, %d samples", d.Ops[OpInsert], d.Latency[OpInsert].Count)
	}
}

// TestLatencySamplingSharedMetrics pins first-wins sampler arming: two
// structures sharing a collector accumulate into one histogram set.
func TestLatencySamplingSharedMetrics(t *testing.T) {
	var met Metrics
	a := MustNewMap[int](WithMetrics(&met), WithLatencySampling(1))
	b := MustNewMap[int](WithMetrics(&met), WithLatencySampling(0.25))
	a.Store(1, 1)
	b.Store(2, 2)
	sn := met.Snapshot()
	if sn.Latency[OpInsert].Count == 0 {
		t.Fatal("shared collector recorded no latency samples")
	}
}

// TestMeteredSampledAllocs guards the hot-path cost model: with
// metrics attached, Store-existing and Load stay allocation-free (the
// stats.Op is stack-allocated), with or without latency sampling — the
// histogram record itself must be allocation-free too.
func TestMeteredSampledAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []MapOption
	}{
		{"metered", []MapOption{WithMetrics(&Metrics{})}},
		{"metered-sampled", []MapOption{WithMetrics(&Metrics{}), WithLatencySampling(1)}},
	} {
		m := MustNewMap[int](tc.opts...)
		m.Store(42, 1)
		if g := allocsPerCall(2, 100, func() { m.Store(42, 2) }); g != 0 {
			t.Errorf("%s Store-existing: %v allocs/op, want 0", tc.name, g)
		}
		if g := allocsPerCall(2, 100, func() { m.Load(42) }); g != 0 {
			t.Errorf("%s Load: %v allocs/op, want 0", tc.name, g)
		}
	}
}

// TestOldestPinAgeGauges checks the retention gauges end-to-end: an
// open snapshot surfaces a live pin with growing age; a handle leaked
// and garbage-collected drives the gauges back to zero and counts in
// LeakedPins.
func TestOldestPinAgeGauges(t *testing.T) {
	var met Metrics
	m := MustNewMap[int](WithMetrics(&met))
	for i := uint64(0); i < 100; i++ {
		m.Store(i, int(i))
	}
	sn := m.Snapshot()
	time.Sleep(2 * time.Millisecond)
	ms := met.Snapshot()
	if ms.LivePins != 1 {
		t.Fatalf("LivePins = %d with one open snapshot, want 1", ms.LivePins)
	}
	if ms.OldestPinAge < time.Millisecond {
		t.Fatalf("OldestPinAge = %v, want >= 1ms", ms.OldestPinAge)
	}
	sn.Close()
	if ms := met.Snapshot(); ms.LivePins != 0 || ms.OldestPinAge != 0 {
		t.Fatalf("after Close: LivePins = %d, OldestPinAge = %v, want 0, 0", ms.LivePins, ms.OldestPinAge)
	}

	// Leak a snapshot: drop the only reference and let the leak guard
	// release the pin. The gauges must return to zero without any
	// explicit Close.
	sn = m.Snapshot()
	if ms := met.Snapshot(); ms.LivePins != 1 {
		t.Fatalf("LivePins = %d with leaked-to-be snapshot, want 1", ms.LivePins)
	}
	sn = nil
	_ = sn
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		ms = met.Snapshot()
		if ms.CDC.LeakedPins == 1 && ms.LivePins == 0 && ms.OldestPinAge == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked snapshot not reclaimed: LeakedPins = %d, LivePins = %d, OldestPinAge = %v",
				ms.CDC.LeakedPins, ms.LivePins, ms.OldestPinAge)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchLaggedEventCount pins the recordWatch fix: a deferred window
// must count its events in WatchLaggedEvents, not just the deferral.
func TestWatchLaggedEventCount(t *testing.T) {
	var met Metrics
	m := MustNewMap[int](WithMetrics(&met))
	w, err := m.Watch(WithWatchInterval(0), WithWatchBuffer(0))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := uint64(0); i < 10; i++ {
		m.Store(i, int(i))
	}
	// Drive one window by hand against the unbuffered, unread channel:
	// the batch cannot be delivered and must be deferred as lagged.
	w.st.tick()
	sn := met.Snapshot()
	if sn.CDC.WatchLagged != 1 {
		t.Fatalf("WatchLagged = %d, want 1", sn.CDC.WatchLagged)
	}
	if sn.CDC.WatchLaggedEvents != 10 {
		t.Fatalf("WatchLaggedEvents = %d, want 10", sn.CDC.WatchLaggedEvents)
	}
	// The deferred events ride along with the next Poll — nothing lost.
	batch, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 10 {
		t.Fatalf("Poll after lag returned %d events, want 10", len(batch))
	}
}

// TestReshardPhaseDurations checks the per-phase migration timing
// surfaced on MetricsSnapshot: both phases ran and their sum is
// bounded by the total migration time.
func TestReshardPhaseDurations(t *testing.T) {
	var met Metrics
	s := MustNewSharded[int](WithShards(1), WithMetrics(&met))
	for i := uint64(0); i < 5000; i++ {
		s.Store(i<<40, int(i))
	}
	if err := s.Split(0); err != nil {
		t.Fatal(err)
	}
	r := met.Snapshot().Reshard
	if r.Splits != 1 {
		t.Fatalf("Splits = %d, want 1", r.Splits)
	}
	if r.WarmCopyTime <= 0 || r.ResyncTime <= 0 {
		t.Fatalf("phase times not recorded: warm %v resync %v", r.WarmCopyTime, r.ResyncTime)
	}
	if r.WarmCopyTime+r.ResyncTime > r.MigrateTime {
		t.Fatalf("phases exceed total: warm %v + resync %v > migrate %v", r.WarmCopyTime, r.ResyncTime, r.MigrateTime)
	}
}

// TestTraceHooks exercises the lifecycle event stream end-to-end on a
// Sharded: pins, migration phases, watch windows and dump progress all
// surface through WithTraceHooks.
func TestTraceHooks(t *testing.T) {
	type eventLog struct {
		pins       []PinTrace
		migrations []MigrationTrace
		watches    []WatchTrace
		dumps      []DumpTrace
	}
	var (
		mu  = make(chan struct{}, 1)
		log eventLog
	)
	mu <- struct{}{}
	withLog := func(fn func(*eventLog)) {
		<-mu
		fn(&log)
		mu <- struct{}{}
	}
	var met Metrics
	s := MustNewSharded[int](WithShards(1), WithMetrics(&met), WithTraceHooks(TraceHooks{
		Pin:       func(e PinTrace) { withLog(func(l *eventLog) { l.pins = append(l.pins, e) }) },
		Migration: func(e MigrationTrace) { withLog(func(l *eventLog) { l.migrations = append(l.migrations, e) }) },
		Watch:     func(e WatchTrace) { withLog(func(l *eventLog) { l.watches = append(l.watches, e) }) },
		Dump:      func(e DumpTrace) { withLog(func(l *eventLog) { l.dumps = append(l.dumps, e) }) },
	}))
	for i := uint64(0); i < 1000; i++ {
		s.Store(i<<44, int(i))
	}

	// Pin acquire + release through a snapshot's lifecycle.
	sn := s.Snapshot()
	var buf bytes.Buffer
	if _, err := sn.Dump(&buf, JSONCodec[int]()); err != nil {
		t.Fatal(err)
	}
	sn.Close()

	// One split: warm-copy + seal-resync events for the source shard.
	if err := s.Split(0); err != nil {
		t.Fatal(err)
	}

	// One manual watch window: cut + deliver.
	w, err := s.Watch(WithWatchInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Store(1, 1)
	if _, err := w.Poll(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	withLog(func(l *eventLog) {
		var acq, rel bool
		for _, e := range l.pins {
			if e.Acquire {
				acq = true
			} else {
				rel = true
				if e.Age < 0 {
					t.Errorf("pin release with negative age %v", e.Age)
				}
			}
		}
		if !acq || !rel {
			t.Errorf("pin events incomplete: acquire=%v release=%v (%d events)", acq, rel, len(l.pins))
		}
		phases := map[string]bool{}
		for _, e := range l.migrations {
			if !e.Split {
				t.Errorf("unexpected merge migration event %+v", e)
			}
			phases[e.Phase] = true
		}
		if !phases["warm-copy"] || !phases["seal-resync"] {
			t.Errorf("migration phases seen = %v, want warm-copy and seal-resync", phases)
		}
		kinds := map[string]int{}
		for _, e := range l.watches {
			kinds[e.Kind] += e.Events
		}
		if _, ok := kinds["cut"]; !ok {
			t.Errorf("no watch cut event: %v", kinds)
		}
		if kinds["deliver"] == 0 {
			t.Errorf("no delivered watch events: %v", kinds)
		}
		if len(l.dumps) == 0 {
			t.Error("no dump progress events")
		}
		var entries uint64
		for _, e := range l.dumps {
			if e.Restore {
				t.Errorf("unexpected restore event %+v", e)
			}
			entries += e.Entries
		}
		if entries != 1000 {
			t.Errorf("dump events cover %d entries, want 1000", entries)
		}
	})
}

// promLine matches one sample line of the text exposition format
// closely enough to catch malformed names, labels and values without a
// promtool dependency.
var promLine = regexp.MustCompile(`^[a-z_][a-z0-9_]*(\{[a-z_][a-z0-9_]*="[^"\\]*"(,[a-z_][a-z0-9_]*="[^"\\]*")*\})? (NaN|[+-]?(Inf|[0-9].*))$`)

// TestWriteProm lints the exporter's output: every line is a comment
// or a well-formed sample, histogram buckets are cumulative with
// monotone le bounds, and _count matches the +Inf bucket.
func TestWriteProm(t *testing.T) {
	var met Metrics
	m := MustNewMap[int](WithMetrics(&met), WithLatencySampling(1))
	for i := uint64(0); i < 500; i++ {
		m.Store(i, int(i))
		m.Load(i)
	}
	sn := m.Snapshot()
	defer sn.Close()

	var buf bytes.Buffer
	if err := met.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var (
		lastLe    = map[string]float64{}
		lastCum   = map[string]uint64{}
		infBucket = map[string]uint64{}
		countLine = map[string]uint64{}
	)
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d not valid exposition format: %q", ln+1, line)
		}
		if strings.HasPrefix(line, "skiptrie_op_latency_seconds_bucket{") {
			kind := extractLabel(t, line, "kind")
			le := extractLabel(t, line, "le")
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("line %d: bucket value: %v", ln+1, err)
			}
			if v < lastCum[kind] {
				t.Fatalf("line %d: bucket counts not cumulative for kind %q", ln+1, kind)
			}
			lastCum[kind] = v
			if le == "+Inf" {
				infBucket[kind] = v
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("line %d: le %q: %v", ln+1, le, err)
			}
			if prev, ok := lastLe[kind]; ok && f <= prev {
				t.Fatalf("line %d: le bounds not increasing for kind %q (%v after %v)", ln+1, kind, f, prev)
			}
			lastLe[kind] = f
		}
		if strings.HasPrefix(line, "skiptrie_op_latency_seconds_count{") {
			kind := extractLabel(t, line, "kind")
			v, _ := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			countLine[kind] = v
		}
	}
	for kind, c := range countLine {
		if infBucket[kind] != c {
			t.Errorf("kind %q: +Inf bucket %d != _count %d", kind, infBucket[kind], c)
		}
	}
	if countLine["insert"] == 0 || countLine["contains"] == 0 {
		t.Errorf("expected sampled insert/contains counts, got %v", countLine)
	}
	// Spot-check the non-histogram families made it out.
	for _, want := range []string{
		`skiptrie_ops_total{kind="insert"} `,
		"skiptrie_hops_total ",
		"skiptrie_live_pins 1",
		"skiptrie_leaked_pins_total 0",
		"skiptrie_reshard_migrate_seconds_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func extractLabel(t *testing.T, line, name string) string {
	t.Helper()
	i := strings.Index(line, name+`="`)
	if i < 0 {
		t.Fatalf("line %q missing label %q", line, name)
	}
	rest := line[i+len(name)+2:]
	j := strings.IndexByte(rest, '"')
	return rest[:j]
}

// TestMetricsSnapshotString smoke-tests the compact report: each
// populated section renders, empty ones are omitted.
func TestMetricsSnapshotString(t *testing.T) {
	var met Metrics
	m := MustNewMap[int](WithMetrics(&met), WithLatencySampling(1))
	for i := uint64(0); i < 100; i++ {
		m.Store(i, int(i))
	}
	sn := m.Snapshot()
	defer sn.Close()
	out := met.Snapshot().String()
	for _, want := range []string{"ops:", "insert 100", "steps:", "latency[insert]:", "gauges: pins 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "reshard:") || strings.Contains(out, "cdc:") {
		t.Errorf("String() renders empty sections:\n%s", out)
	}
	if out2 := (MetricsSnapshot{}).String(); !strings.Contains(out2, "ops: none") {
		t.Errorf("empty snapshot String() = %q", out2)
	}
}
