package sim

// Chan is a FIFO message queue between simulated processes. A capacity of
// zero or less means unbounded; otherwise Send blocks while the buffer is
// full. Unlike Go channels there is no rendezvous mode: a Send into an
// unbounded or non-full channel completes immediately at the current
// virtual time.
type Chan[T any] struct {
	buf      Ring[T]
	capacity int
	notFull  WaitQueue
	notEmpty WaitQueue
	closed   bool
}

// NewChan returns a channel with the given capacity (<= 0 for unbounded).
func NewChan[T any](_ *Env, capacity int) *Chan[T] {
	return &Chan[T]{capacity: capacity}
}

// Len returns the number of buffered messages.
func (c *Chan[T]) Len() int { return c.buf.Len() }

// Close marks the channel closed: Recv on an empty closed channel returns
// ok == false, and Send panics.
func (c *Chan[T]) Close() {
	c.closed = true
	c.notEmpty.WakeAll()
}

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Send enqueues v, parking while a bounded channel is full.
func (c *Chan[T]) Send(p *Proc, v T) {
	for c.capacity > 0 && c.buf.Len() >= c.capacity {
		c.notFull.Wait(p)
	}
	if c.closed {
		panic("sim: send on closed Chan")
	}
	c.buf.Push(v)
	c.notEmpty.WakeOne()
}

// TrySend enqueues v if the channel is not full, reporting success.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	if c.capacity > 0 && c.buf.Len() >= c.capacity {
		return false
	}
	c.buf.Push(v)
	c.notEmpty.WakeOne()
	return true
}

// Recv dequeues the oldest message, parking while the channel is empty.
// ok is false if the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	for c.buf.Len() == 0 {
		if c.closed {
			return v, false
		}
		c.notEmpty.Wait(p)
	}
	return c.TryRecv()
}

// TryRecv dequeues without blocking; ok reports whether a message was taken.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	v, ok = c.buf.Pop()
	if ok {
		c.notFull.WakeOne()
	}
	return v, ok
}

// RecvTimeout dequeues the oldest message, parking at most d. ok is false
// on timeout or when the channel is closed and drained.
func (c *Chan[T]) RecvTimeout(p *Proc, d Duration) (v T, ok bool) {
	deadline := p.env.now.Add(d)
	for c.buf.Len() == 0 {
		if c.closed {
			return v, false
		}
		remain := deadline.Sub(p.env.now)
		if remain <= 0 {
			return v, false
		}
		c.notEmpty.WaitTimeout(p, remain)
		if c.buf.Len() == 0 && p.env.now >= deadline {
			return v, false
		}
	}
	return c.TryRecv()
}
