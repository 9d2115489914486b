package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"skiptrie"
)

// This file runs the two in-process workloads, read-ordered and
// write-churn, against the public Sharded[uint64] form.

// inWorker is one closed-loop goroutine and everything it needs to run
// and check its stream.
type inWorker struct {
	id     int
	ops    []op
	bounds [segments + 1]int // op index where each segment starts
	segs   []segStats

	batches, batchVals []uint64 // StoreBatch runs, batchLen keys each

	attempted, failed uint64

	// read-ordered: exact answers, and the key set Range is checked against.
	exactPred bool
	keys      []uint64
	rangeFn   func(k, v uint64) bool
	rIdx, rN  int
	rBad      bool

	// write-churn: the held snapshot and the Diff sink.
	prev   *skiptrie.Snapshot[uint64]
	diffFn func(skiptrie.DiffEvent[uint64]) bool
	events int

	// Traced pass only.
	log                        *spanLog
	m                          *skiptrie.Metrics
	pinNs, diffNs              int64
	pins, diffEvents           int
	retainedPeak, segmentsPeak int
	migrations                 int
}

func newInWorker(id int, ops []op) *inWorker {
	w := &inWorker{id: id, ops: ops, segs: make([]segStats, segments)}
	// Segments hold equal numbers of data ops; maintenance ops belong
	// to the segment of the data op they precede.
	data := 0
	for _, o := range ops {
		if o.keyOps() > 0 {
			data++
		}
	}
	per, seen, s := data/segments, 0, 1
	for i, o := range ops {
		if o.keyOps() > 0 {
			if seen == per*s && s < segments {
				w.bounds[s] = i
				s++
			}
			seen++
		}
	}
	// Walk each boundary back over the maintenance ops that precede
	// its first data op.
	for s := 1; s < segments; s++ {
		for w.bounds[s] > 0 && ops[w.bounds[s]-1].keyOps() == 0 {
			w.bounds[s]--
		}
	}
	w.bounds[segments] = len(ops)
	w.rangeFn = func(k, v uint64) bool {
		if w.rIdx >= len(w.keys) || k != w.keys[w.rIdx] || v != value(k) {
			w.rBad = true
			return false
		}
		w.rIdx++
		w.rN++
		return w.rN < scanLen
	}
	w.diffFn = func(skiptrie.DiffEvent[uint64]) bool {
		w.events++
		return true
	}
	return w
}

func (w *inWorker) fail(o *op, format string, args ...any) {
	if w.failed < 5 {
		fmt.Fprintf(os.Stderr, "perfbench: worker %d: %s %#x: %s\n", w.id, opNames[o.kind], o.key, fmt.Sprintf(format, args...))
	}
	w.failed++
}

// run executes the stream. Each call is timed on its own; checks run
// outside the timed interval.
func (w *inWorker) run(s *skiptrie.Sharded[uint64]) {
	for seg := range w.segs {
		st := &w.segs[seg]
		segStart := nanotime()
		for i := w.bounds[seg]; i < w.bounds[seg+1]; i++ {
			o := &w.ops[i]
			var t0, t1 int64
			class := -1
			switch o.kind {
			case opLoad:
				t0 = nanotime()
				v, ok := s.Load(o.key)
				t1 = nanotime()
				class = classGet
				if !ok || v != value(o.key) {
					w.fail(o, "got %#x, %v", v, ok)
				}
			case opPred, opSucc:
				t0 = nanotime()
				var k, v uint64
				var ok bool
				if o.kind == opPred {
					k, v, ok = s.Predecessor(o.key)
				} else {
					k, v, ok = s.Successor(o.key)
				}
				t1 = nanotime()
				class = classOrdered
				w.checkOrdered(o, k, v, ok)
			case opRange:
				w.rIdx, w.rN, w.rBad = int(o.aux), 0, false
				t0 = nanotime()
				s.Range(o.key, w.rangeFn)
				t1 = nanotime()
				class = classOrdered
				if want := min(scanLen, len(w.keys)-int(o.aux)); w.rBad || w.rN != want {
					w.fail(o, "%d keys, want %d (bad %v)", w.rN, want, w.rBad)
				}
			case opStore:
				v := value(o.key)
				t0 = nanotime()
				s.Store(o.key, v)
				t1 = nanotime()
				class = classWrite
			case opDelete:
				t0 = nanotime()
				ok := s.Delete(o.key)
				t1 = nanotime()
				class = classWrite
				if !ok {
					w.fail(o, "own key was not there")
				}
			case opBatch:
				keys := w.batches[o.aux : o.aux+batchLen]
				vals := w.batchVals[o.aux : o.aux+batchLen]
				t0 = nanotime()
				s.StoreBatch(keys, vals)
				t1 = nanotime()
				class = classWrite
			case opSplit, opMerge:
				t0 = nanotime()
				var err error
				if o.kind == opSplit {
					err = s.Split(o.key)
				} else {
					err = s.Merge(o.key)
				}
				t1 = nanotime()
				if err != nil {
					w.fail(o, "%v", err)
				} else {
					w.migrations++
				}
			case opRenew:
				t0, t1 = w.renew(s, o)
			}
			if class >= 0 {
				st.lat[class].record(t1 - t0)
				st.ops += o.keyOps()
				w.attempted += o.keyOps()
			} else {
				w.attempted++
			}
			if w.log != nil && (class < 0 || i%spanEvery == 0) {
				w.log.add(0, uint64(w.id)<<48|uint64(i), spanNames[o.kind], t0, t1)
			}
		}
		st.nsec = nanotime() - segStart
	}
}

var spanNames = func() (n [len(opNames)]string) {
	for i, s := range opNames {
		n[i] = "skiptrie." + s
	}
	return n
}()

func (w *inWorker) checkOrdered(o *op, k, v uint64, ok bool) {
	switch {
	case w.exactPred && o.aux == nothing:
		if ok {
			w.fail(o, "got %#x, want none", k)
		}
	case w.exactPred:
		if !ok || k != o.aux || v != value(k) {
			w.fail(o, "got %#x (%v), want %#x", k, ok, o.aux)
		}
	default: // at least the permanent predecessor o.aux, at most the point
		if !ok || k < o.aux || k > o.key || v != value(k) {
			w.fail(o, "got %#x (%v), want in [%#x, %#x]", k, ok, o.aux, o.key)
		}
	}
}

// renew takes a snapshot, diffs the previous one against it and closes
// the previous one. It returns the interval of the Snapshot call.
func (w *inWorker) renew(s *skiptrie.Sharded[uint64], o *op) (t0, t1 int64) {
	t0 = nanotime()
	sn := s.Snapshot()
	t1 = nanotime()
	if w.prev != nil {
		w.events = 0
		d0 := nanotime()
		err := w.prev.Diff(sn, w.diffFn)
		d1 := nanotime()
		w.prev.Close()
		if err != nil {
			w.fail(o, "diff: %v", err)
		}
		if w.log != nil {
			w.pinNs += t1 - t0
			w.pins++
			w.diffNs += d1 - d0
			w.diffEvents += w.events
			w.log.add(0, uint64(w.id)<<48|uint64(len(w.log.spans)), "skiptrie.Diff", d0, d1)
		}
	}
	w.prev = sn
	if w.m != nil {
		g := w.m.Snapshot()
		w.retainedPeak = max(w.retainedPeak, g.RetainedNodes)
		w.segmentsPeak = max(w.segmentsPeak, g.JournalSegments)
	}
	return t0, t1
}

// inBench is one built in-process instance.
type inBench struct {
	s       *skiptrie.Sharded[uint64]
	m       *skiptrie.Metrics // traced pass only
	w       [workers]*inWorker
	wantLen int

	before, after skiptrie.MetricsSnapshot
}

func (b *inBench) run(tr *tracer) error {
	if tr != nil {
		for i, w := range b.w {
			w.log, w.m = &tr.logs[i], b.m
		}
		b.before = b.m.Snapshot()
	}
	var wg sync.WaitGroup
	for _, w := range b.w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(b.s)
		}()
	}
	wg.Wait()
	if tr != nil {
		b.after = b.m.Snapshot()
	}
	return nil
}

func (b *inBench) results() ([][]segStats, counts) {
	var c counts
	segs := make([][]segStats, 0, workers)
	for _, w := range b.w {
		segs = append(segs, w.segs)
		c.attempted += w.attempted
		c.failed += w.failed
	}
	// No balancer is attached in process, so no split or merge in the
	// window is the balancer's.
	return segs, c
}

func (b *inBench) settle() (int, error) {
	for _, w := range b.w {
		if w.prev != nil {
			w.prev.Close()
			w.prev = nil
		}
	}
	n := b.s.Len()
	if n != b.wantLen {
		return n, fmt.Errorf("Len() = %d, want %d", n, b.wantLen)
	}
	if err := b.s.Validate(); err != nil {
		return n, fmt.Errorf("Validate: %w", err)
	}
	return n, nil
}

func (b *inBench) layers(p *pass, tr *tracer) map[string]float64 {
	d := b.after.Sub(b.before)
	out := engineLayers(d)
	var migrations, pins, diffEvents int
	var pinNs, diffNs int64
	for _, w := range b.w {
		migrations += w.migrations
		pins += w.pins
		pinNs += w.pinNs
		diffNs += w.diffNs
		diffEvents += w.diffEvents
		out["skiplist.retained_nodes_peak"] = max(out["skiplist.retained_nodes_peak"], float64(w.retainedPeak))
		out["skiplist.journal_segments_peak"] = max(out["skiplist.journal_segments_peak"], float64(w.segmentsPeak))
	}
	var keys int
	var warm, resync time.Duration
	for _, m := range tr.migrations {
		keys += m.keys
		switch m.phase {
		case "warm-copy":
			warm += m.dur
		case "seal-resync":
			resync += m.dur
		}
	}
	out["shard.migrations"] = float64(migrations)
	if migrations > 0 {
		out["shard.moved_keys_per_migration"] = float64(keys) / float64(migrations)
		out["shard.warm_copy_ms"] = warm.Seconds() * 1e3 / float64(migrations)
		out["shard.resync_us"] = resync.Seconds() * 1e6 / float64(migrations)
	}
	if pins > 0 {
		out["skiplist.pin_us"] = float64(pinNs) / 1e3 / float64(pins)
	}
	if diffEvents > 0 {
		out["skiplist.diff_ns_per_key"] = float64(diffNs) / float64(diffEvents)
	}
	out["reshard.events_in_window"] = float64(d.Reshard.Splits+d.Reshard.Merges) - float64(migrations)
	return out
}

func (b *inBench) close() {
	b.s.Close()
	b.s = nil
}

// newBench builds an in-process structure and its workers; a traced
// build attaches a Metrics collector and the tracer's hooks at
// construction.
func newBench(seed uint64, shards int, tr *tracer, wantLen int, ops [workers][]op) (*inBench, error) {
	b := &inBench{wantLen: wantLen}
	opts := []skiptrie.ShardedOption{skiptrie.WithWidth(32), skiptrie.WithSeed(seed), skiptrie.WithShards(shards)}
	if tr != nil {
		b.m = &skiptrie.Metrics{}
		opts = append(opts, skiptrie.WithMetrics(b.m), skiptrie.WithTraceHooks(tr.hooks()))
	}
	var err error
	if b.s, err = skiptrie.NewSharded[uint64](opts...); err != nil {
		return nil, err
	}
	for i := range b.w {
		b.w[i] = newInWorker(i, ops[i])
	}
	return b, nil
}

// bulkLoad stores sorted keys in ascending StoreBatch runs.
func bulkLoad(s *skiptrie.Sharded[uint64], keys, vals []uint64) {
	const run = 1024
	for i := 0; i < len(keys); i += run {
		j := min(i+run, len(keys))
		s.StoreBatch(keys[i:j], vals[i:j])
	}
}

func values(keys []uint64) []uint64 {
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = value(k)
	}
	return vals
}

func prepareReadOrdered(seed uint64, ops int) (func(*tracer) (bench, error), func() replayStats) {
	in := genReadOrdered(seed, ops)
	vals := values(in.keys)
	mk := func(tr *tracer) (bench, error) {
		b, err := newBench(seed, 0, tr, len(in.keys), in.ops)
		if err != nil {
			return nil, err
		}
		bulkLoad(b.s, in.keys, vals)
		for _, w := range b.w {
			w.exactPred, w.keys = true, in.keys
		}
		return b, nil
	}
	replay := func() replayStats { return replayReadOrdered(seed, in, vals) }
	return mk, replay
}

func prepareWriteChurn(seed uint64, ops int) (func(*tracer) (bench, error), func() replayStats) {
	in := genWriteChurn(seed, ops)
	prefill := wcPrefill(in)
	vals := values(prefill)
	var batchVals [workers][]uint64
	for i := range batchVals {
		batchVals[i] = values(in.batches[i])
	}
	mk := func(tr *tracer) (bench, error) {
		b, err := newBench(seed, wcShards, tr, wcPermanent+in.final[0]+in.final[1], in.ops)
		if err != nil {
			return nil, err
		}
		bulkLoad(b.s, prefill, vals)
		for i, w := range b.w {
			w.batches, w.batchVals = in.batches[i], batchVals[i]
		}
		return b, nil
	}
	replay := func() replayStats { return replayWriteChurn(seed, in, prefill, vals) }
	return mk, replay
}
