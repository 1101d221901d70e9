//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The memory file of an area: memfd_create(2) flags, fcntl(2) seal
// commands and the seals every area carries; futex(2) operations.
const (
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1033
	fGetSeals       = 1034
	areaSeals       = 0x1 | 0x2 | 0x4 // F_SEAL_SEAL | F_SEAL_SHRINK | F_SEAL_GROW

	futexWait = 0
	futexWake = 1
)

// NewArea creates an area of size bytes: a memory file sealed so that
// nobody can grow or shrink it or change the seals, mapped here, zeroed,
// with a fresh token in its first word. The descriptor stays open until
// CloseFd.
func NewArea(size int) (*Area, error) {
	name := []byte("mpj-area\x00")
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&name[0])), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	fail := func(what string, err error) (*Area, error) {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if err := syscall.Ftruncate(int(fd), int64(size)); err != nil {
		return fail("ftruncate", err)
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, fAddSeals, areaSeals); errno != 0 {
		return fail("seal", errno)
	}
	m, err := syscall.Mmap(int(fd), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fail("mmap", err)
	}
	a := &Area{mem: m, fd: int(fd)}
	a.Word(areaToken).Store(rand.Uint64() | 1) // random, never 0
	return a, nil
}

// MapArea maps the area process pid offered as descriptor fd with token:
// through /proc, checked to be a sealed file of size bytes whose first word
// holds the token.
func MapArea(pid, fd, size int, token uint64) (*Area, error) {
	path := "/proc/" + strconv.Itoa(pid) + "/fd/" + strconv.Itoa(fd)
	f, err := syscall.Open(path, syscall.O_RDWR|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer syscall.Close(f)
	var st syscall.Stat_t
	if err := syscall.Fstat(f, &st); err != nil {
		return nil, fmt.Errorf("fstat %s: %w", path, err)
	}
	seals, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(f), fGetSeals, 0)
	if errno != 0 || seals&areaSeals != areaSeals || st.Size != int64(size) {
		return nil, fmt.Errorf("%s is not a sealed area of %d bytes", path, size)
	}
	m, err := syscall.Mmap(f, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	a := &Area{mem: m, fd: -1}
	if a.Token() != token {
		unmap(m)
		return nil, fmt.Errorf("%s holds another token", path)
	}
	return a, nil
}

// Sleep blocks while the low half of the word at off still reads as the
// low half of seen, for at most d, or until a Wake. It may return early
// for no reason; callers look at the word again.
func (a *Area) Sleep(off int, seen uint64, d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// Not FUTEX_PRIVATE_FLAG: the wakers are other processes. The low
	// half of a little-endian word is at its own address.
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&a.mem[off])), futexWait, uintptr(uint32(seen)),
		uintptr(unsafe.Pointer(&ts)), 0, 0)
}

// Wake wakes every process sleeping on the word at off.
func (a *Area) Wake(off int) {
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&a.mem[off])), futexWake, uintptr(1<<31-1), 0, 0, 0)
}

// Yield gives this thread's CPU to another runnable thread of the host,
// if there is one: sched_yield(2). A waiter that polls an area word on an
// oversubscribed host calls it so that the peer process it waits for runs.
func Yield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }

// unmap unmaps an area's bytes.
func unmap(m []byte) { _ = syscall.Munmap(m) }

// closeFd closes a descriptor.
func closeFd(fd int) { _ = syscall.Close(fd) }
