package skiplist

import (
	"sync"
	"testing"
	"time"
)

// TestPinSkipsPostBumpCommits pins the generation-tagged drain: a
// commit that enters its window after PinEpoch bumped the clock is
// provably fresh (its stamp is at least the bumped epoch) and must not
// extend the pin's drain wait. The hook sequence constructs exactly
// that interleaving deterministically: the pin, immediately after its
// bump, starts an insert and waits until that insert is parked inside
// its commit window; only then does the pin proceed to its drain. A
// drain that still waits on every lane (the pre-generation behaviour)
// deadlocks here — the parked insert never exits its window until the
// pin returns — which the test converts into a failure via timeout.
func TestPinSkipsPostBumpCommits(t *testing.T) {
	l := New[int](Config{Levels: 4})
	l.Insert(1, 1, nil, nil) // some pre-existing state

	var (
		insertStarted = make(chan struct{}) // pin bumped; inserter may go
		inWindow      = make(chan struct{}) // inserter parked inside its commit window
		releaseInsert = make(chan struct{})
		insertDone    = make(chan struct{})
		pinDone       = make(chan uint64, 1)
		bumpOnce      sync.Once
		windowOnce    sync.Once
	)
	restore := SetTestHook(func(site string, n *Node) {
		switch site {
		case "pin.after-bump":
			bumpOnce.Do(func() {
				close(insertStarted)
				<-inWindow
			})
		case "insert.committing":
			if n.Key() == 99 {
				windowOnce.Do(func() {
					close(inWindow)
					<-releaseInsert
				})
			}
		}
	})
	defer restore()

	go func() {
		<-insertStarted
		l.Insert(99, 1, nil, nil)
		close(insertDone)
	}()
	go func() { pinDone <- l.PinEpoch() }()

	select {
	case p := <-pinDone:
		// The pin returned while a post-bump commit was still mid-window:
		// the fresh generation's lane was correctly skipped.
		close(releaseInsert)
		<-insertDone
		n, ok := l.Find(99, nil, nil)
		if !ok {
			t.Fatal("post-release insert did not land")
		}
		if n.VisibleAt(p) {
			t.Fatalf("insert stamped born=%d is visible at pinned epoch %d", rootOf(n).born, p)
		}
		l.ReleaseEpoch(p)
	case <-time.After(10 * time.Second):
		close(releaseInsert)
		t.Fatal("PinEpoch waited on a commit that entered after the bump: generation tag not honored")
	}
}
