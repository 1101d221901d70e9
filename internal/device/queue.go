package device

// queue is a matching queue of the device, FIFO, its entries in buf[head:].
// Matches sit near the front, so drop shifts the entries ahead of a match
// up one slot, not the ones behind it down. Vacated slots are zeroed, so no
// stale frame or request stays reachable, and reused, all of them when the
// queue drains: a queue a few deep runs in one array without allocating.
type queue[T any] struct {
	buf  []T
	head int
}

// live returns the entries in arrival order, valid until the next change.
func (q *queue[T]) live() []T { return q.buf[q.head:] }

func (q *queue[T]) push(x T) {
	if l := q.live(); len(q.buf) == cap(q.buf) && q.head >= len(l) {
		q.buf, q.head = q.buf[:copy(q.buf, l)], 0 // at least half vacated: slide down
		clear(q.buf[len(l):cap(q.buf)])
	}
	q.buf = append(q.buf, x)
}

// drop removes live()[i], keeping the order of the rest.
func (q *queue[T]) drop(i int) {
	l := q.live()
	copy(l[1:i+1], l[:i])
	var zero T
	l[0] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// keep cuts the queue to its first n live entries, once a filter has moved
// the entries it keeps to the front of live().
func (q *queue[T]) keep(n int) {
	clear(q.live()[n:])
	q.buf = q.buf[:q.head+n]
}
