package transport

// sysMemfdCreate is memfd_create(2); package syscall's amd64 table ends
// before it.
const sysMemfdCreate = 319
