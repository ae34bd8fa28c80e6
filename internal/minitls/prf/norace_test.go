//go:build !race

package prf

const raceEnabled = false
