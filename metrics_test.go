package skiptrie

import (
	"testing"
	"time"
	"unsafe"
)

// TestMetricStripeLayout pins the stripe padding: a stripe is 192 B, and
// at every 8-B-aligned base offset of Metrics the last counter line of
// each stripe comes before the first line of the next, so concurrent
// recorders on neighbouring stripes never share a cache line. The
// 160-B stripe this replaced shared one at base offsets 24 and 56 mod 64.
func TestMetricStripeLayout(t *testing.T) {
	var s metricStripe
	size := unsafe.Sizeof(s)
	end := unsafe.Offsetof(s.touches) + unsafe.Sizeof(s.touches)
	if size != 192 {
		t.Fatalf("metricStripe is %d B, want 192", size)
	}
	for base := uintptr(0); base < 64; base += 8 {
		for i := uintptr(0); i+1 < metricStripes; i++ {
			last := (base + i*size + end - 1) / 64
			first := (base + (i+1)*size) / 64
			if last >= first {
				t.Errorf("base %d mod 64: stripes %d and %d share line %d", base, i, i+1, first)
			}
		}
	}
}

// TestMetricsAttribution checks that every public operation records its
// sample under the right OpKind bucket — in particular that successor
// queries land under OpSuccessor, not OpPredecessor.
func TestMetricsAttribution(t *testing.T) {
	var mx Metrics
	s := MustNew(WithWidth(16), WithMetrics(&mx))
	for k := uint64(10); k <= 50; k += 10 {
		s.Insert(k) // 5 x OpInsert
	}
	s.Delete(10)            // 1 x OpDelete
	s.Contains(20)          // 1 x OpContains
	s.Contains(11)          // 1 x OpContains
	s.Predecessor(25)       // OpPredecessor
	s.StrictPredecessor(30) // OpPredecessor
	s.Successor(25)         // OpSuccessor
	s.Successor(26)         // OpSuccessor
	s.StrictSuccessor(30)   // OpSuccessor
	sn := mx.Snapshot()
	want := map[OpKind]uint64{
		OpInsert:      5,
		OpDelete:      1,
		OpContains:    2,
		OpPredecessor: 2,
		OpSuccessor:   3,
	}
	for kind, n := range want {
		if got := sn.Ops[kind]; got != n {
			t.Errorf("set %v ops = %d, want %d", kind, got, n)
		}
	}
	if got := sn.TotalOps(); got != 13 {
		t.Errorf("set TotalOps = %d, want 13", got)
	}
	if sn.AvgSteps(OpSuccessor) <= 0 {
		t.Error("successor queries recorded no steps")
	}

	// The Map wrapper shares the same attribution.
	var mm Metrics
	m := MustNewMap[int](WithWidth(16), WithMetrics(&mm))
	m.Store(5, 1)          // OpInsert
	m.Store(5, 2)          // OpInsert (update path)
	m.LoadOrStore(6, 3)    // OpInsert
	m.Load(5)              // OpContains
	m.Delete(6)            // OpDelete
	m.Predecessor(9)       // OpPredecessor
	m.StrictPredecessor(9) // OpPredecessor
	m.Successor(1)         // OpSuccessor
	m.StrictSuccessor(1)   // OpSuccessor
	msn := mm.Snapshot()
	mwant := map[OpKind]uint64{
		OpInsert:      3,
		OpDelete:      1,
		OpContains:    1,
		OpPredecessor: 2,
		OpSuccessor:   2,
	}
	for kind, n := range mwant {
		if got := msn.Ops[kind]; got != n {
			t.Errorf("map %v ops = %d, want %d", kind, got, n)
		}
	}
}

// TestMetricsReshardCounters pins the reshard section of MetricsSnapshot: nil
// metrics are safe, counters accumulate across manual splits/merges,
// and the skew gauge reflects the balancer's last sample.
func TestMetricsReshardCounters(t *testing.T) {
	// Nil receiver paths must not panic (Sharded without WithMetrics).
	var nilM *Metrics
	nilM.recordReshard(true, 5, time.Millisecond, 0, 0)
	nilM.setSkew(2.0)
	if sn := nilM.Snapshot(); sn.Reshard.Splits != 0 {
		t.Fatalf("nil metrics snapshot = %+v", sn.Reshard)
	}

	var m Metrics
	m.recordReshard(true, 10, 2*time.Millisecond, time.Millisecond, time.Millisecond)
	m.recordReshard(true, 20, 3*time.Millisecond, 2*time.Millisecond, time.Millisecond)
	m.recordReshard(false, 30, 5*time.Millisecond, 3*time.Millisecond, 2*time.Millisecond)
	m.setSkew(1.75)
	sn := m.Snapshot()
	r := sn.Reshard
	if r.Splits != 2 || r.Merges != 1 || r.MovedKeys != 60 {
		t.Fatalf("Reshard counters = %+v", r)
	}
	if r.MigrateTime != 10*time.Millisecond {
		t.Fatalf("MigrateTime = %v, want 10ms", r.MigrateTime)
	}
	if r.Skew != 1.75 {
		t.Fatalf("Skew = %v, want 1.75", r.Skew)
	}
}
