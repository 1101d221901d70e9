//go:build linux && (amd64 || arm64)

package transport

import (
	"syscall"
	"unsafe"
)

// remoteIovec is struct iovec for the address space of another process:
// the kernel's layout on both 64-bit targets, with the base kept an integer
// — it is an address over there, never a pointer here.
type remoteIovec struct{ base, len uint64 }

// maxSpans bounds the buffers and the spans of one ReadProcess, so that
// both vectors live on its stack.
const maxSpans = 4

// ReadProcess copies the spans of process pid's address space, in order,
// into the local buffers, in order, with one process_vm_readv(2) — the
// kernel moves the bytes once, from the pages where they lie — and returns
// the count moved. The kernel works through the remote spans front to back,
// which is what lets a caller bracket a span with two reads of a guard word
// (see the pull in internal/device). A count short of the buffers' total
// means the remote side became unreadable part-way; err is the errno when
// nothing moved at all: ESRCH no such process, EPERM no ptrace access to it
// (another uid, a restricted Yama scope, Docker's default seccomp profile),
// ENOSYS no such call, EFAULT a first address it does not map. At most
// maxSpans of each.
func ReadProcess(pid int, local [][]byte, remote []Span) (int, error) {
	if len(local) > maxSpans || len(remote) > maxSpans {
		return 0, syscall.EINVAL
	}
	var liov [maxSpans]syscall.Iovec
	var riov [maxSpans]remoteIovec
	for i, b := range local {
		if len(b) > 0 {
			liov[i] = syscall.Iovec{Base: &b[0], Len: uint64(len(b))}
		}
	}
	for i, s := range remote {
		riov[i] = remoteIovec{s.Addr, s.Len}
	}
	n, _, errno := syscall.Syscall6(sysProcessVMReadv, uintptr(pid),
		uintptr(unsafe.Pointer(&liov[0])), uintptr(len(local)),
		uintptr(unsafe.Pointer(&riov[0])), uintptr(len(remote)), 0)
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}
