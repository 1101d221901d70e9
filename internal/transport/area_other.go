//go:build !(linux && (amd64 || arm64))

package transport

import (
	"errors"
	"fmt"
	"runtime"
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

// Yield gives the processor to another goroutine; there is no area a
// waiter could poll here, so nothing waits on another process.
func Yield() { runtime.Gosched() }

func unmap(m []byte) {}

func closeFd(fd int) {}
