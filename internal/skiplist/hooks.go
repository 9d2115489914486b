package skiplist

// testHook, when non-nil, is invoked at named synchronization points on
// the operation's own goroutine. Tests use it to pause operations at
// paper-relevant instants (e.g. a top-level insert that has linked itself
// but not yet repaired its successor's prev pointer — the Figure 2
// scenario) or to inject scheduling noise. It must be set only while no
// operations are in flight and reset afterwards. Production builds never
// set it; the nil check is the only cost.
var testHook func(site string, n *Node)

// SetTestHook installs a synchronization-point hook and returns a restore
// function. It is exported for the tests of the layers above (core), which
// replay interleavings that span the skiplist and the trie.
func SetTestHook(fn func(site string, n *Node)) (restore func()) {
	testHook = fn
	return func() { testHook = nil }
}

func hook(site string, n *Node) {
	if testHook != nil {
		testHook(site, n)
	}
}
