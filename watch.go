package skiptrie

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"
)

// This file implements Watch: a long-lived change subscription built
// on periodic snapshot diffs. A watcher owns a cursor snapshot; every
// interval it pins a fresh snapshot, diffs cursor → fresh (O(changed
// keys)), advances the cursor, and delivers the window's events as one
// batch. The structure's write paths pay nothing for an attached
// watcher beyond the usual snapshot retention cost.

const (
	defaultWatchInterval = 100 * time.Millisecond
	defaultWatchBuffer   = 8
)

// watchConfig is the resolved Watch configuration.
type watchConfig struct {
	interval time.Duration
	buffer   int
	err      error
}

// WatchOption configures a Watch subscription.
type WatchOption func(*watchConfig)

// WithWatchInterval sets how often the watcher cuts a window (default
// 100ms). Zero selects manual mode: no background goroutine runs and
// the subscriber drives windows explicitly with Poll. Negative
// intervals fail Watch with ErrInvalidOption.
func WithWatchInterval(d time.Duration) WatchOption {
	return func(c *watchConfig) {
		if d < 0 {
			if c.err == nil {
				c.err = fmt.Errorf("%w: negative watch interval %v", ErrInvalidOption, d)
			}
			return
		}
		c.interval = d
	}
}

// WithWatchBuffer sets how many undelivered batches Events buffers
// before the watcher starts deferring windows (default 8). Negative
// sizes fail Watch with ErrInvalidOption.
func WithWatchBuffer(n int) WatchOption {
	return func(c *watchConfig) {
		if n < 0 {
			if c.err == nil {
				c.err = fmt.Errorf("%w: negative watch buffer %d", ErrInvalidOption, n)
			}
			return
		}
		c.buffer = n
	}
}

// Watcher is a change subscription on a Map or Sharded, created by
// their Watch methods. It delivers batches of DiffEvents on the Events
// channel (or from Poll in manual mode), one batch per diff window,
// events in ascending key order within a batch.
//
// Delivery is at-least-once with per-window coalescing: every change
// is eventually reported, a key written many times inside one window
// is reported once with its final value, and — on a Sharded — a window
// containing a shard Split or Merge may re-announce unchanged keys of
// the reshaped range (see Snapshot.Diff). Empty windows deliver
// nothing.
//
// Backpressure: Events is a bounded channel. When the subscriber falls
// behind until the buffer is full, the watcher does not block and does
// not drop changes — it defers the window, folding its events into the
// next batch (newer events per key win) and counting the deferral in
// Metrics CDC WatchLagged. A slow subscriber therefore sees coarser
// batches, never a gap.
//
// Close stops the watcher, releases its cursor snapshot, and closes
// Events. A watcher that is garbage-collected without Close is stopped
// by the same leak guard as Snapshot, counted in Metrics LeakedPins.
type Watcher[V any] struct {
	st      *watcherState[V]
	cleanup runtime.Cleanup
}

// watcherState is the inner state the background goroutine and leak
// guard operate on; it must not reference the outer Watcher handle, so
// collecting the handle can trigger the cleanup.
type watcherState[V any] struct {
	take func() *Snapshot[V]
	m    *Metrics
	h    *TraceHooks
	ch   chan []DiffEvent[V]
	stop chan struct{} // nil in manual mode
	done chan struct{}

	once sync.Once
	mu   sync.Mutex
	cur  *Snapshot[V]            // cursor snapshot; nil once closed
	held map[uint64]DiffEvent[V] // events of deferred windows, coalesced by key
}

// Watch subscribes to the map's changes (on a Sharded, across
// concurrent Split and Merge). See Watcher for the delivery and
// backpressure contract.
func (e *engine[V]) Watch(opts ...WatchOption) (*Watcher[V], error) {
	c := watchConfig{interval: defaultWatchInterval, buffer: defaultWatchBuffer}
	for _, fn := range opts {
		fn(&c)
	}
	if c.err != nil {
		return nil, c.err
	}
	st := &watcherState[V]{
		take: e.Snapshot,
		m:    e.m,
		h:    e.h,
		ch:   make(chan []DiffEvent[V], c.buffer),
		done: make(chan struct{}),
		cur:  e.Snapshot(),
	}
	if c.interval > 0 {
		st.stop = make(chan struct{})
		if e.h != nil {
			// Label the ticker goroutine so it is attributable in CPU
			// and goroutine profiles when tracing is on.
			go pprof.Do(context.Background(), pprof.Labels("skiptrie", "watcher"), func(context.Context) {
				st.run(c.interval)
			})
		} else {
			go st.run(c.interval)
		}
	} else {
		close(st.done)
	}
	w := &Watcher[V]{st: st}
	w.cleanup = runtime.AddCleanup(w, func(st *watcherState[V]) {
		if st.close() {
			st.m.leakedPin()
		}
	}, st)
	return w, nil
}

func (st *watcherState[V]) run(interval time.Duration) {
	defer close(st.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-t.C:
			st.tick()
		}
	}
}

// window cuts one diff window: pin fresh, diff cursor → fresh, advance
// the cursor, and fold in any events held from deferred windows. The
// returned batch is in ascending key order.
func (st *watcherState[V]) window() ([]DiffEvent[V], error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cur == nil {
		return nil, ErrSnapshotClosed
	}
	next := st.take()
	var batch []DiffEvent[V]
	err := st.cur.Diff(next, func(e DiffEvent[V]) bool {
		batch = append(batch, e)
		return true
	})
	if err != nil {
		next.Close()
		return nil, err
	}
	st.cur.Close()
	st.cur = next
	st.h.emitWatch("cut", len(batch))
	if len(st.held) > 0 {
		for _, e := range batch {
			st.held[e.Key] = e // this window is newer: it wins per key
		}
		batch = batch[:0]
		for _, e := range st.held {
			batch = append(batch, e)
		}
		slices.SortFunc(batch, func(a, b DiffEvent[V]) int {
			switch {
			case a.Key < b.Key:
				return -1
			case a.Key > b.Key:
				return 1
			default:
				return 0
			}
		})
		st.held = nil
	}
	return batch, nil
}

// defer_ puts an undeliverable batch back into held, to ride along
// with the next window.
func (st *watcherState[V]) defer_(batch []DiffEvent[V]) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.held == nil {
		st.held = make(map[uint64]DiffEvent[V], len(batch))
	}
	for _, e := range batch {
		if _, ok := st.held[e.Key]; !ok {
			st.held[e.Key] = e
		}
	}
}

func (st *watcherState[V]) tick() {
	batch, err := st.window()
	if err != nil || len(batch) == 0 {
		return
	}
	select {
	case st.ch <- batch:
		st.m.recordWatch(uint64(len(batch)), false)
		st.h.emitWatch("deliver", len(batch))
	default:
		st.defer_(batch)
		st.m.recordWatch(uint64(len(batch)), true)
		st.h.emitWatch("lag", len(batch))
	}
}

// close tears the watcher down exactly once and reports whether this
// call did it.
func (st *watcherState[V]) close() bool {
	did := false
	st.once.Do(func() {
		did = true
		if st.stop != nil {
			close(st.stop)
			<-st.done
		}
		st.mu.Lock()
		if st.cur != nil {
			st.cur.Close()
			st.cur = nil
		}
		st.mu.Unlock()
		close(st.ch)
	})
	return did
}

// Events returns the channel the watcher delivers batches on. It is
// closed by Close. Within a batch events are in ascending key order;
// across batches a later batch reflects a later window.
func (w *Watcher[V]) Events() <-chan []DiffEvent[V] { return w.st.ch }

// Poll cuts one window immediately and returns its events (nil when
// nothing changed), bypassing the Events channel. It is how manual
// mode (WithWatchInterval(0)) drives the watcher, and may also be
// called alongside a ticking watcher to force a window early. Events
// deferred from lagged windows ride along with the next Poll or tick.
func (w *Watcher[V]) Poll() ([]DiffEvent[V], error) {
	batch, err := w.st.window()
	if err != nil {
		return nil, err
	}
	w.st.m.recordWatch(uint64(len(batch)), false)
	w.st.h.emitWatch("deliver", len(batch))
	return batch, nil
}

// Close stops the watcher, releases its cursor snapshot and closes the
// Events channel. Safe to call multiple times; only the first call
// acts.
func (w *Watcher[V]) Close() {
	if w.st.close() {
		w.cleanup.Stop()
	}
}
