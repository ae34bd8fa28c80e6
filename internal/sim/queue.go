package sim

// FIFO is a simple generic first-in-first-out queue used by model code
// (run queues, ring buffers with unbounded capacity, async queues).
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends an item at the tail.
func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }

// Pop removes and returns the head item; ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero // release reference
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}
