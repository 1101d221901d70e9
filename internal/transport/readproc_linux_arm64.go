package transport

import "syscall"

const sysProcessVMReadv = syscall.SYS_PROCESS_VM_READV
