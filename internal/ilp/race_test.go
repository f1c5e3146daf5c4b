//go:build race

package ilp

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// Puts on purpose: allocation counts of pooled paths vary under it.
const raceEnabled = true
