package transport

// Span is a byte range of another process's address space. The address is
// a number that process published (a rendezvous offer, see internal/device
// pull.go); it is never turned into a pointer on this side.
type Span struct{ Addr, Len uint64 }
