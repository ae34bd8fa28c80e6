//go:build !race

package cbc

const raceEnabled = false
