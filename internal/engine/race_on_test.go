//go:build race

package engine

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// quarter of its Puts at random: allocation tests that measure pool
// reuse do not hold there.
const raceEnabled = true
