//go:build race

package predictors

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is handed, so a test that counts allocations of a pooled path cannot
// hold its bound there.
const raceEnabled = true
