//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"syscall"
	"unsafe"
)

// The memory file of a ring: memfd_create(2) flags, fcntl(2) seal commands
// and the seals every ring carries.
const (
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1033
	fGetSeals       = 1034
	ringSeals       = 0x1 | 0x2 | 0x4 // F_SEAL_SEAL | F_SEAL_SHRINK | F_SEAL_GROW
)

// newInRing creates a ring for a peer to write into: a memory file of
// ringSize bytes, sealed so that nobody can grow or shrink it or change the
// seals, mapped here, with a fresh token in its header. The descriptor
// stays open until the peer has answered the offer (closeRingFd).
func newInRing() (*inRing, error) {
	name := []byte("mpj-ring\x00")
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&name[0])), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	in := &inRing{fd: int(fd)}
	fail := func(what string, err error) (*inRing, error) {
		syscall.Close(in.fd)
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if err := syscall.Ftruncate(in.fd, ringSize); err != nil {
		return fail("ftruncate", err)
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, fAddSeals, ringSeals); errno != 0 {
		return fail("seal", errno)
	}
	m, err := syscall.Mmap(in.fd, 0, ringSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fail("mmap", err)
	}
	in.m = m
	in.m.word(offToken).Store(rand.Uint64() | 1) // random, never 0
	return in, nil
}

// mapRing maps the ring process pid offered as descriptor fd with token:
// through /proc, checked to be the sealed file of ringSize bytes whose
// header holds the token.
func mapRing(pid, fd int, token uint64) (*outRing, error) {
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
	if errno != 0 || seals&ringSeals != ringSeals || st.Size != ringSize {
		return nil, fmt.Errorf("%s is not a sealed ring", path)
	}
	m, err := syscall.Mmap(f, 0, ringSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	o := &outRing{m: m}
	if o.m.word(offToken).Load() != token {
		syscall.Munmap(m)
		return nil, fmt.Errorf("%s holds another token", path)
	}
	return o, nil
}

// unmapRing unmaps a ring.
func unmapRing(m ringMem) { _ = syscall.Munmap(m) }

// closeFd closes a descriptor.
func closeFd(fd int) { _ = syscall.Close(fd) }
