// Package ring provides Deque, a double-ended queue in a ring buffer.
// The runtime's per-task queues (the sent queue, a PE's message and run
// queues, the OOC wait queues) push and pop at a steady rate; on a ring
// a queue reuses its slots, where a slice popped by reslicing
// reallocates whenever appends reach the end of its shrinking capacity.
package ring

// Deque is a double-ended queue in a ring buffer. The zero value is an
// empty deque.
type Deque[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of elements.
func (d *Deque[T]) Len() int { return d.n }

// At returns the i-th element from the front, 0 <= i < Len().
func (d *Deque[T]) At(i int) T { return d.buf[(d.head+i)&(len(d.buf)-1)] }

// Front returns the first element of a non-empty deque.
func (d *Deque[T]) Front() T { return d.buf[d.head] }

// PushBack appends v.
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// PushFront prepends v.
func (d *Deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the first element of a non-empty deque.
func (d *Deque[T]) PopFront() T {
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

// grow doubles the buffer, at least to 16 slots, keeping the order.
func (d *Deque[T]) grow() {
	buf := make([]T, max(2*len(d.buf), 16))
	for i := 0; i < d.n; i++ {
		buf[i] = d.At(i)
	}
	d.buf, d.head = buf, 0
}
