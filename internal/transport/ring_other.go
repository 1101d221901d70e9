//go:build !(linux && (amd64 || arm64))

package transport

import (
	"errors"
	"fmt"
)

// Rings need a sealed memory file another process can map (see
// ring_linux.go); here every direction stays on the socket.

var errNoRings = fmt.Errorf("no shared-memory rings: %w", errors.ErrUnsupported)

func newInRing() (*inRing, error) { return nil, errNoRings }

func mapRing(pid, fd int, token uint64) (*outRing, error) { return nil, errNoRings }

func unmapRing(m ringMem) {}

func closeFd(fd int) {}
