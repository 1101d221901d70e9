//go:build race

package mpj

// raceEnabled: the race detector slows every path several times over, so
// the timing bounds skip under it.
const raceEnabled = true
