//go:build race

package device

// raceEnabled: the race detector makes sync.Pool drop Puts on purpose, so
// allocation gates that lean on pooling skip under it.
const raceEnabled = true
