//go:build race

package cbc

// raceEnabled reports a -race build, whose instrumentation allocates and
// whose sync.Pool drops Puts at random: exact allocation bounds do not hold.
const raceEnabled = true
