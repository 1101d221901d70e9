//go:build !linux

package mpj

// allowPeersToRead: nothing reads a peer's memory here (see
// transport.ReadProcess).
func allowPeersToRead() {}
