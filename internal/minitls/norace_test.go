//go:build !race

package minitls

const raceEnabled = false
