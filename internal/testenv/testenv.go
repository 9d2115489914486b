// Package testenv carries test-environment knobs shared by the torture,
// churn and fuzz tests across packages. It lets one CI stage re-run the
// whole concurrency suite at a larger scale without duplicating the
// tests.
package testenv

import "os"

// SoakEnv is the environment variable that switches the torture, churn
// and snapshot suites into soak mode: the nightly CI lane sets it to
// run the same tests at an elevated iteration count (Scale), hunting
// rare interleavings that a per-PR time budget cannot afford.
const SoakEnv = "SKIPTRIE_TEST_SOAK"

// soakFactor is how much Scale multiplies iteration counts by in soak
// mode.
const soakFactor = 10

// Soak reports whether the tests should run at soak scale.
func Soak() bool { return os.Getenv(SoakEnv) != "" }

// Scale returns n, multiplied by the soak factor when SKIPTRIE_TEST_SOAK
// is set. Torture tests route their iteration counts through it so the
// nightly soak lane deepens the search without duplicating tests.
func Scale(n int) int {
	if Soak() {
		return n * soakFactor
	}
	return n
}
