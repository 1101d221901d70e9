package device

// WithRings plans co-host rings whatever the gate says, so a test's ranks,
// goroutines of one process, trade frames through them; fault, when set,
// refuses each offer the way the system would.
func WithRings(fault func(peer int) error) Option { return withRings(fault) }

// WithEagerLimit moves the eager/rendezvous threshold to n bytes.
func WithEagerLimit(n int) Option { return withEagerLimit(n) }

// Ended reports whether the device was closed, aborted or declared dead
// itself.
func (d *Device) Ended() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.usable() != nil
}

// HeldIn names the device tables that still reference r: posted receives,
// matched receives awaiting DATA or a pull, and rendezvous sends awaiting a
// CTS or a PULLED. A request the blocking Send or Recv recycled must be in
// none of them. (The unexpected queue holds messages, not requests.)
func (d *Device) HeldIn(r *Request) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var in []string
	for _, p := range d.posted.live() {
		if p == r {
			in = append(in, "posted")
		}
	}
	for _, a := range d.awaitData {
		if a == r {
			in = append(in, "awaitData")
		}
	}
	for _, s := range d.pendingRTS {
		if s == r {
			in = append(in, "pendingRTS")
		}
	}
	return in
}
