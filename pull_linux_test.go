package mpj

import "syscall"

// allowPeersToRead is prctl(PR_SET_PTRACER, PR_SET_PTRACER_ANY): Yama's
// opt-in for being read by a process that is not an ancestor. Where Yama is
// absent the call fails and nothing was needed.
func allowPeersToRead() {
	const prSetPtracer, prSetPtracerAny = 0x59616d61, ^uintptr(0)
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetPtracer, prSetPtracerAny, 0)
}
