package transport

// sysProcessVMReadv is process_vm_readv(2); package syscall's amd64 table
// ends before it.
const sysProcessVMReadv = 310
