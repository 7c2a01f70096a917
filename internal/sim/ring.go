package sim

// Ring is a growable FIFO usable from both ends: the kernel's run
// queue, the event and resource waiters, and the goroutine NavP
// backend's per-PE run queues. Once it has grown to its peak length it
// allocates nothing. The zero value is an empty ring.
type Ring[T any] struct {
	buf     []T // len is zero or a power of two
	head, n int
}

// Len returns the number of queued items.
func (q *Ring[T]) Len() int { return q.n }

func (q *Ring[T]) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]T, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

// PushBack appends v at the tail.
func (q *Ring[T]) PushBack(v T) {
	q.grow()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront inserts v at the head.
func (q *Ring[T]) PushFront(v T) {
	q.grow()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// Front returns the head without removing it; q must not be empty.
func (q *Ring[T]) Front() T { return q.buf[q.head] }

// PopFront removes and returns the head, and false when q is empty.
func (q *Ring[T]) PopFront() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}
