package skiplist

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"skiptrie/internal/uintbits"
)

func newEpochList(t *testing.T) *List[uint64] {
	t.Helper()
	return New[uint64](Config{Levels: uintbits.Levels(16), Seed: 42})
}

// keysAt drains a snapshot cursor pinned at epoch at.
func keysAt(l *List[uint64], at uint64) []uint64 {
	it := l.MakeSnapIter(at)
	var out []uint64
	for ok := it.SeekGE(0, nil, nil); ok; ok = it.Next(nil) {
		out = append(out, it.Key())
	}
	return out
}

func liveKeys(l *List[uint64]) []uint64 {
	it := l.MakeIter()
	var out []uint64
	for ok := it.SeekGE(0, nil, nil); ok; ok = it.Next(nil) {
		out = append(out, it.Key())
	}
	return out
}

func eq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEpochPinRetainsDeletedNode: a delete under a live pin retains the
// node for the pinned view, hides it from the live view, and the
// release sweep reclaims it.
func TestEpochPinRetainsDeletedNode(t *testing.T) {
	l := newEpochList(t)
	for _, k := range []uint64{10, 20, 30} {
		l.Insert(k, k*100, nil, nil)
	}
	p := l.PinEpoch()
	if res := l.Delete(20, nil, nil); !res.Deleted {
		t.Fatal("delete failed")
	}
	if got := liveKeys(l); !eq(got, []uint64{10, 30}) {
		t.Fatalf("live view = %v, want [10 30]", got)
	}
	if got := keysAt(l, p); !eq(got, []uint64{10, 20, 30}) {
		t.Fatalf("pinned view = %v, want [10 20 30]", got)
	}
	if n := l.RetainedCount(); n != 1 {
		t.Fatalf("retained = %d, want 1", n)
	}
	if _, ok := l.Find(20, nil, nil); ok {
		t.Fatal("Find must not see the dead retained node")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	l.ReleaseEpoch(p)
	if n := l.RetainedCount(); n != 0 {
		t.Fatalf("retained after release = %d, want 0", n)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate after sweep: %v", err)
	}
}

// TestEpochDeleteWithoutPinReclaimsInline: the pre-snapshot fast path
// marks and unlinks immediately; nothing is retained.
func TestEpochDeleteWithoutPinReclaimsInline(t *testing.T) {
	l := newEpochList(t)
	l.Insert(7, 7, nil, nil)
	if res := l.Delete(7, nil, nil); !res.Deleted {
		t.Fatal("delete failed")
	}
	if n := l.RetainedCount(); n != 0 {
		t.Fatalf("retained = %d, want 0", n)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochReinsertIncarnations: delete + re-insert under pins at
// different epochs; each pin sees exactly the incarnation (and value)
// of its epoch, and same-key runs stay newest-first.
func TestEpochReinsertIncarnations(t *testing.T) {
	l := newEpochList(t)
	l.Insert(5, 1, nil, nil)

	p1 := l.PinEpoch() // sees 5 -> 1
	l.Delete(5, nil, nil)
	p2 := l.PinEpoch() // sees no 5
	l.Insert(5, 2, nil, nil)
	p3 := l.PinEpoch() // sees 5 -> 2

	if got := keysAt(l, p1); !eq(got, []uint64{5}) {
		t.Fatalf("p1 view = %v, want [5]", got)
	}
	if got := keysAt(l, p2); len(got) != 0 {
		t.Fatalf("p2 view = %v, want empty", got)
	}
	if got := keysAt(l, p3); !eq(got, []uint64{5}) {
		t.Fatalf("p3 view = %v, want [5]", got)
	}

	// Values follow the incarnations.
	it1 := l.MakeSnapIter(p1)
	if ok := it1.SeekGE(5, nil, nil); !ok || it1.Value() != 1 {
		t.Fatalf("p1 value = %v (ok=%v), want 1", it1.Value(), ok)
	}
	it3 := l.MakeSnapIter(p3)
	if ok := it3.SeekGE(5, nil, nil); !ok || it3.Value() != 2 {
		t.Fatalf("p3 value = %v (ok=%v), want 2", it3.Value(), ok)
	}

	// SeekLE must find the retained incarnation even when the newest
	// node is outside the view.
	if ok := it1.SeekLE(5, nil, nil); !ok || it1.Key() != 5 {
		t.Fatal("SeekLE(5) at p1 must find the retained incarnation")
	}

	l.ReleaseEpoch(p2)
	l.ReleaseEpoch(p1)
	// p3 still pins the *first* incarnation? No — it pins only nodes
	// visible at p3; the first incarnation died at or before p2's epoch
	// and must now be reclaimable.
	if n := l.RetainedCount(); n != 0 {
		t.Fatalf("retained after releasing p1,p2 = %d, want 0", n)
	}
	l.ReleaseEpoch(p3)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := liveKeys(l); !eq(got, []uint64{5}) {
		t.Fatalf("live view = %v, want [5]", got)
	}
}

// TestEpochValueVersions: overwrites under a pin preserve the pinned
// value through the version chain; versions prune once pins release.
func TestEpochValueVersions(t *testing.T) {
	l := newEpochList(t)
	l.Insert(9, 100, nil, nil)
	p1 := l.PinEpoch()
	res := l.Upsert(9, 200, nil, nil)
	if res.Existing == nil {
		t.Fatal("upsert should have found the key")
	}
	p2 := l.PinEpoch()
	l.Upsert(9, 300, nil, nil)

	n, ok := l.Find(9, nil, nil)
	if !ok {
		t.Fatal("key lost")
	}
	if got := l.ValueOf(n); got != 300 {
		t.Fatalf("live value = %d, want 300", got)
	}
	if got := l.ValueAt(n, p1); got != 100 {
		t.Fatalf("value at p1 = %d, want 100", got)
	}
	if got := l.ValueAt(n, p2); got != 200 {
		t.Fatalf("value at p2 = %d, want 200", got)
	}
	l.ReleaseEpoch(p1)
	l.ReleaseEpoch(p2)
	// After all pins release, the next overwrite prunes the chain.
	l.Upsert(9, 400, nil, nil)
	if got := l.ValueOf(n); got != 400 {
		t.Fatalf("live value = %d, want 400", got)
	}
}

// TestReleasePrunesValueHistory overwrites a key holding 1 MiB values
// under two pins. Each superseded value must stay readable at the pins
// that select it and become garbage when the last of them is released,
// not only at the key's next overwrite.
func TestReleasePrunesValueHistory(t *testing.T) {
	l := New[[]byte](Config{Levels: 4, Seed: 1})
	n := l.InsertWithHeight(1, nil, nil, 1, nil).Root
	// store overwrites the key with a fresh 1 MiB value and keeps no
	// reference to it but a weak one.
	store := func() weak.Pointer[byte] {
		v := make([]byte, 1<<20)
		l.SetValue(n, v)
		return weak.Make(&v[0])
	}
	collected := func(w weak.Pointer[byte]) bool {
		runtime.GC()
		runtime.GC()
		return w.Value() == nil
	}
	a := store()
	p1 := l.PinEpoch()
	b := store()
	p2 := l.PinEpoch()
	c := store()
	if &l.ValueAt(n, p1)[0] != a.Value() || &l.ValueAt(n, p2)[0] != b.Value() {
		t.Fatal("a pinned read did not return the value current at its pin")
	}
	l.ReleaseEpoch(p1)
	if !collected(a) {
		t.Fatal("the value only the released pin selected outlived the release")
	}
	if collected(b) || &l.ValueAt(n, p2)[0] != b.Value() {
		t.Fatal("the value the live pin selects was dropped")
	}
	l.ReleaseEpoch(p2)
	if !collected(b) {
		t.Fatal("a superseded value outlived the release of the last pin")
	}
	if collected(c) || &l.ValueOf(n)[0] != c.Value() {
		t.Fatal("the current value was dropped")
	}
}

// TestReleaseRacingHistoryPush parks the first overwrite of a key under
// a pin just before it pushes its new history record, and releases the
// pin meanwhile: the release's sweep finds nothing to prune, so the
// overwrite must sweep again once it has pushed.
func TestReleaseRacingHistoryPush(t *testing.T) {
	l := New[int](Config{Levels: 4, Seed: 1})
	n := l.InsertWithHeight(1, 1, nil, 1, nil).Root
	p := l.PinEpoch()
	paused := make(chan struct{})
	resume := make(chan struct{})
	restore := SetTestHook(func(site string, _ *Node) {
		if site == "history.before-push" {
			close(paused)
			<-resume
		}
	})
	t.Cleanup(restore)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.SetValue(n, 2)
	}()
	<-paused
	l.ReleaseEpoch(p)
	close(resume)
	<-done
	restore()
	if dataOf[int](n).hist != nil {
		t.Fatal("a history record outlived the release it raced")
	}
}

// TestReleaseSweepRacingPinnedOverwrite parks the sweep of the last
// pin's release once it has taken the history records, then pins again
// and overwrites the key. The sweep must judge the record against the
// new pin, which still selects the value the overwrite superseded.
func TestReleaseSweepRacingPinnedOverwrite(t *testing.T) {
	l := New[int](Config{Levels: 4, Seed: 1})
	n := l.InsertWithHeight(1, 1, nil, 1, nil).Root
	p0 := l.PinEpoch()
	l.SetValue(n, 2)
	_, stamp := l.ValueStampAt(n, noPin)
	var once sync.Once
	paused := make(chan struct{})
	resume := make(chan struct{})
	restore := SetTestHook(func(site string, _ *Node) {
		if site == "history.after-swap" {
			once.Do(func() {
				close(paused)
				<-resume
			})
		}
	})
	t.Cleanup(restore)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.ReleaseEpoch(p0)
	}()
	<-paused
	p1 := l.PinEpoch()
	l.SetValue(n, 3)
	close(resume)
	<-done
	restore()
	if v, from := l.ValueStampAt(n, p1); v != 2 || from != stamp {
		t.Fatalf("read pinned at %d = %d stamped %d, want 2 stamped %d", p1, v, from, stamp)
	}
	l.ReleaseEpoch(p1)
	if dataOf[int](n).hist != nil {
		t.Fatal("a history record outlived the release of the last pin")
	}
}

// TestOverlappingReleasesDropHistories parks the sweep of a release that
// leaves one pin live just before it puts a record back, and releases
// the last pin meanwhile. That release must wait out the parked sweep
// and then drop the record it put back.
func TestOverlappingReleasesDropHistories(t *testing.T) {
	l := New[int](Config{Levels: 4, Seed: 1})
	n := l.InsertWithHeight(1, 1, nil, 1, nil).Root
	pa := l.PinEpoch()
	l.SetValue(n, 2)
	pb := l.PinEpoch()
	l.SetValue(n, 3)
	var once sync.Once
	paused := make(chan struct{})
	resume := make(chan struct{})
	restore := SetTestHook(func(site string, _ *Node) {
		if site == "history.before-push" {
			once.Do(func() {
				close(paused)
				<-resume
			})
		}
	})
	t.Cleanup(restore)
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		l.ReleaseEpoch(pa)
	}()
	<-paused
	doneB := make(chan struct{})
	go func() {
		defer close(doneB)
		l.ReleaseEpoch(pb)
	}()
	// The last release waits for the parked sweep; a release that did
	// not would sweep the empty stack now. Give it the time to, so that
	// the record the parked sweep puts back would be left behind.
	select {
	case <-doneB:
	case <-time.After(50 * time.Millisecond):
	}
	close(resume)
	<-doneA
	<-doneB
	restore()
	if dataOf[int](n).hist != nil || l.hists.Load() != nil {
		t.Fatal("a history record outlived the release of the last pin")
	}
}

// TestReleaseDropsHistoriesUnderChurn overwrites keys from several
// goroutines while two others pin and release epochs, so releases
// overlap; run it under -race. Once the last pin is released, no key may
// keep a history record.
func TestReleaseDropsHistoriesUnderChurn(t *testing.T) {
	const keys = 64
	l := New[int](Config{Levels: 4, Seed: 1})
	roots := make([]*Node, keys)
	for k := range roots {
		roots[k] = l.InsertWithHeight(uint64(k), k, nil, 1, nil).Root
	}
	stop := make(chan struct{})
	var pinners sync.WaitGroup
	for range 2 {
		pinners.Add(1)
		go func() {
			defer pinners.Done()
			for {
				select {
				case <-stop:
					return
				default:
					l.ReleaseEpoch(l.PinEpoch())
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				l.SetValue(roots[(i*7+g)%keys], i)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pinners.Wait()
	if l.hists.Load() != nil {
		t.Fatal("a history record stayed listed after the last release")
	}
	for k, n := range roots {
		if dataOf[int](n).hist != nil {
			t.Fatalf("key %d kept a history record after the last release", k)
		}
	}
}

// TestEpochPinRefcounts: two pins at the same epoch each need their own
// release before the sweep runs.
func TestEpochPinRefcounts(t *testing.T) {
	l := newEpochList(t)
	l.Insert(1, 1, nil, nil)
	p1 := l.PinEpoch()
	p2 := l.PinEpoch()
	if p2 != p1+1 {
		t.Fatalf("second pin epoch = %d, want %d (each pin bumps)", p2, p1+1)
	}
	l.Delete(1, nil, nil)
	l.ReleaseEpoch(p1)
	if n := l.RetainedCount(); n != 1 {
		t.Fatalf("retained with one pin left = %d, want 1", n)
	}
	if got := keysAt(l, p2); !eq(got, []uint64{1}) {
		t.Fatalf("p2 view = %v, want [1]", got)
	}
	l.ReleaseEpoch(p2)
	if n := l.RetainedCount(); n != 0 {
		t.Fatalf("retained after all releases = %d, want 0", n)
	}
	if l.PinCount() != 0 {
		t.Fatalf("PinCount = %d, want 0", l.PinCount())
	}
}

// TestEpochBackwardOverRetained: backward navigation (SeekLE, SeekLast,
// Prev) across retained dead runs lands on the right nodes in both
// views.
func TestEpochBackwardOverRetained(t *testing.T) {
	l := newEpochList(t)
	for _, k := range []uint64{10, 20, 30, 40} {
		l.Insert(k, k, nil, nil)
	}
	p := l.PinEpoch()
	l.Delete(30, nil, nil)
	l.Delete(40, nil, nil)

	// Live view: SeekLast skips the retained tail run.
	it := l.MakeIter()
	if ok := it.SeekLast(nil, nil); !ok || it.Key() != 20 {
		t.Fatalf("live SeekLast = %d, want 20", it.Key())
	}
	if ok := it.Prev(nil, nil); !ok || it.Key() != 10 {
		t.Fatalf("live Prev = %d, want 10", it.Key())
	}
	// Live SeekLE over a retained key falls back to the live
	// predecessor.
	if ok := it.SeekLE(35, nil, nil); !ok || it.Key() != 20 {
		t.Fatalf("live SeekLE(35) = %d, want 20", it.Key())
	}

	// Snapshot view: the retained keys are still there.
	sit := l.MakeSnapIter(p)
	if ok := sit.SeekLast(nil, nil); !ok || sit.Key() != 40 {
		t.Fatalf("snap SeekLast = %d, want 40", sit.Key())
	}
	if ok := sit.Prev(nil, nil); !ok || sit.Key() != 30 {
		t.Fatalf("snap Prev = %d, want 30", sit.Key())
	}
	l.ReleaseEpoch(p)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochLiveHelpers: NextLive/PrevLive/FindVisible skip retained
// nodes, including the oldest-incarnation trap behind a live same-key
// node.
func TestEpochLiveHelpers(t *testing.T) {
	l := newEpochList(t)
	l.Insert(50, 1, nil, nil)
	p := l.PinEpoch()
	l.Delete(50, nil, nil)
	l.Insert(50, 2, nil, nil) // live incarnation in front of the retained one

	// The run now holds [live 50, dead 50]: a predecessor search from
	// above lands its Left on the dead one; PrevLive must recover the
	// live incarnation rather than skip the key.
	br := l.PredecessorBracket(60, nil, nil)
	n, ok := l.PrevLive(br.Left, nil)
	if !ok || n.Key() != 50 || n.IsDead() {
		t.Fatalf("PrevLive over run = %v (ok=%v), want live 50", n, ok)
	}
	if got := l.ValueOf(n); got != 2 {
		t.Fatalf("PrevLive value = %d, want 2", got)
	}

	// Same trap backwards through the iterator.
	it := l.MakeIter()
	if ok := it.SeekLE(60, nil, nil); !ok || it.Key() != 50 || it.Value() != 2 {
		t.Fatalf("SeekLE(60) = %d/%d, want live 50/2", it.Key(), it.Value())
	}
	l.ReleaseEpoch(p)
}

// TestPinWaitsForInFlightDeleteCommit pins the commit-counter protocol
// (epoch.go): a delete that sampled the epoch but has not yet CASed its
// dead stamp must complete before PinEpoch hands out a pin, or the
// stale stamp would hide from the pin a key that reads issued after
// the pin could still observe as present.
func TestPinWaitsForInFlightDeleteCommit(t *testing.T) {
	l := newEpochList(t)
	l.Insert(1, 1, nil, nil)
	gate := make(chan struct{})
	entered := make(chan struct{})
	testHook = func(site string, n *Node) {
		if site == "delete.committing" {
			close(entered)
			<-gate
		}
	}
	defer func() { testHook = nil }()

	done := make(chan DeleteResult, 1)
	go func() { done <- l.Delete(1, nil, nil) }()
	<-entered

	pinned := make(chan uint64, 1)
	go func() { pinned <- l.PinEpoch() }()
	select {
	case p := <-pinned:
		t.Fatalf("PinEpoch returned %d while a delete commit was in flight", p)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if res := <-done; !res.Deleted {
		t.Fatal("gated delete did not win")
	}
	p := <-pinned
	// The stale-stamped delete committed before the pin existed, so it
	// orders before the pin: the pinned view must not hold the key.
	if got := keysAt(l, p); len(got) != 0 {
		t.Fatalf("pinned view = %v, want empty (delete ordered before pin)", got)
	}
	l.ReleaseEpoch(p)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPinWaitsForInFlightInsertCommit is the insert-side mirror: a
// born stamp sampled before the pin's bump must publish before the pin
// is handed out, and the pin then legitimately sees the key.
func TestPinWaitsForInFlightInsertCommit(t *testing.T) {
	l := newEpochList(t)
	gate := make(chan struct{})
	entered := make(chan struct{})
	testHook = func(site string, n *Node) {
		if site == "insert.committing" && n.Key() == 2 {
			close(entered)
			<-gate
			testHook = nil // only gate the first attempt
		}
	}
	defer func() { testHook = nil }()

	done := make(chan InsertResult, 1)
	go func() { done <- l.Insert(2, 22, nil, nil) }()
	<-entered

	pinned := make(chan uint64, 1)
	go func() { pinned <- l.PinEpoch() }()
	select {
	case p := <-pinned:
		t.Fatalf("PinEpoch returned %d while an insert commit was in flight", p)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if res := <-done; !res.Inserted {
		t.Fatal("gated insert failed")
	}
	p := <-pinned
	if got := keysAt(l, p); !eq(got, []uint64{2}) {
		t.Fatalf("pinned view = %v, want [2] (insert ordered before pin)", got)
	}
	l.ReleaseEpoch(p)
}
