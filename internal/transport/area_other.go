//go:build !(linux && (amd64 || arm64))

package transport

import (
	"errors"
	"fmt"
	"time"
)

// Areas need a sealed memory file another process can map (see
// area_linux.go); here there are none, so every ring direction stays on
// the socket and every allreduce on its schedule.

var errNoAreas = fmt.Errorf("no shared-memory areas: %w", errors.ErrUnsupported)

func NewArea(size int) (*Area, error) { return nil, errNoAreas }

func MapArea(pid, fd, size int, token uint64) (*Area, error) { return nil, errNoAreas }

func (a *Area) Sleep(off int, seen uint64, d time.Duration) {}

func (a *Area) Wake(off int) {}

func unmap(m []byte) {}

func closeFd(fd int) {}
