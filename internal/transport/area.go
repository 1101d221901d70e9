package transport

// Shared-memory areas: a sealed memory file one process creates and other
// processes of its host map through /proc/<pid>/fd/<n>.
//
// Two things are built on them: the co-host rings (ring.go), one area per
// direction of a pair, and core's host area, one per communicator whose
// members are all processes of this host, through which a large Allreduce
// folds. The creator seals the file against growing, shrinking and
// re-sealing, so that no process mapping it can be made to fault by a
// truncation, and stores a random token in its first word; a process that
// maps it checks the seals, the size and that token — which reached it over
// a channel the job already trusts — so a recycled pid or a stale
// descriptor maps nothing. Everything else in an area is hostile bytes to
// whoever reads it.
//
// The area's words are sequentially consistent atomics (sync/atomic), which
// hold across processes on amd64 and arm64. A waiter may sleep on the low
// half of a word (Sleep) until another process changes it and calls Wake:
// a futex on the shared mapping. Areas exist on Linux only (area_linux.go);
// elsewhere NewArea and MapArea refuse (area_other.go) and the callers keep
// to their sockets and schedules.

import (
	"sync/atomic"
	"unsafe"
)

// areaToken is the offset of the creator's random token, never 0.
const areaToken = 0

// Area is a shared memory file mapped into this process.
type Area struct {
	mem []byte
	fd  int // the creator's descriptor until CloseFd; -1 after, and in a mapper
}

// Bytes returns the whole mapping.
func (a *Area) Bytes() []byte { return a.mem }

// Word returns the atomic word at off, which must be 8-byte aligned and
// inside the area.
func (a *Area) Word(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&a.mem[off]))
}

// Token returns the token the creator stored.
func (a *Area) Token() uint64 { return a.Word(areaToken).Load() }

// Fd returns the creator's descriptor, to offer to the processes that will
// map the area; -1 once closed.
func (a *Area) Fd() int { return a.fd }

// CloseFd closes the creator's descriptor: once every process that was
// offered the area has mapped it or refused, the mappings keep the file.
func (a *Area) CloseFd() {
	if a.fd >= 0 {
		closeFd(a.fd)
		a.fd = -1
	}
}

// Unmap releases the mapping (and the descriptor, when still open). The
// caller guarantees nobody reads or writes the area any more.
func (a *Area) Unmap() {
	a.CloseFd()
	unmap(a.mem)
	a.mem = nil
}
