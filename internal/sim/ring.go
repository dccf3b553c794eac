package sim

// Ring is a growable FIFO queue on a circular buffer. Unlike a slice that
// is re-sliced from the front, popping never sheds capacity, so a queue
// that has reached its working depth stops allocating. The zero value is
// an empty queue ready for use.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest element; ok is false when empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero // drop the reference for the collector
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// At returns the i-th oldest element, 0 <= i < Len.
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// RemoveAt deletes the i-th oldest element, keeping the others in order.
func (r *Ring[T]) RemoveAt(i int) {
	mask := len(r.buf) - 1
	for ; i < r.n-1; i++ {
		r.buf[(r.head+i)&mask] = r.buf[(r.head+i+1)&mask]
	}
	var zero T
	r.buf[(r.head+r.n-1)&mask] = zero
	r.n--
}

func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.At(i)
	}
	r.buf, r.head = buf, 0
}
