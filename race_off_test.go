//go:build !race

package mpj

const raceEnabled = false
