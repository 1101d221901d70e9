//go:build !(linux && (amd64 || arm64))

package transport

import "errors"

// ReadProcess reads another process's memory where the platform has a call
// for it (see readproc_linux.go); here it has none.
func ReadProcess(pid int, local [][]byte, remote []Span) (int, error) {
	return 0, errors.ErrUnsupported
}
