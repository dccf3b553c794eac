package sim

// WaitQueue is a FIFO queue of parked processes, the building block for all
// higher-level blocking primitives. Wakers schedule the resumed process at
// the current virtual instant; as with condition variables, woken waiters
// must re-check their predicate. The zero value is an empty queue ready
// for use: every operation reaches the environment through a waiter.
//
// The longest-waiting process sits in an inline slot and only those behind
// it in the ring, so a queue that never holds more than one waiter (a
// one-shot completion, a dispatch process's work queue) allocates nothing.
type WaitQueue struct {
	first   *Proc       // head of the queue; nil exactly when the queue is empty
	waiters Ring[*Proc] // the processes behind first, in arrival order
}

// NewWaitQueue returns an empty wait queue.
func NewWaitQueue(_ *Env) *WaitQueue { return &WaitQueue{} }

// Len returns the number of parked processes.
func (q *WaitQueue) Len() int {
	if q.first == nil {
		return 0
	}
	return 1 + q.waiters.Len()
}

// push appends p at the tail.
func (q *WaitQueue) push(p *Proc) {
	if q.first == nil {
		q.first = p
		return
	}
	q.waiters.Push(p)
}

// pop removes and returns the longest-waiting process, nil when empty.
func (q *WaitQueue) pop() *Proc {
	p := q.first
	q.first, _ = q.waiters.Pop()
	return p
}

// Wait parks p until a waker releases it.
func (q *WaitQueue) Wait(p *Proc) {
	q.push(p)
	p.park()
}

// WaitTimeout parks p until woken or until d elapses. It reports whether
// the process was woken (false means the timeout fired).
func (q *WaitQueue) WaitTimeout(p *Proc, d Duration) (woken bool) {
	q.push(p)
	p.env.schedule(p.env.now.Add(d), p, nil)
	p.park()
	// If we are still queued, the timer fired; withdraw.
	if q.first == p {
		q.pop()
		return false
	}
	for i := 0; i < q.waiters.Len(); i++ {
		if q.waiters.At(i) == p {
			q.waiters.RemoveAt(i)
			return false
		}
	}
	return true
}

// WakeOne resumes the longest-waiting process, if any, and reports whether
// one was woken.
func (q *WaitQueue) WakeOne() bool {
	p := q.pop()
	if p == nil {
		return false
	}
	p.env.schedule(p.env.now, p, nil)
	return true
}

// WakeAll resumes every parked process.
func (q *WaitQueue) WakeAll() {
	for q.WakeOne() {
	}
}

// Event is a one-shot broadcast: processes wait until it is triggered;
// waiting on an already-triggered event returns immediately.
// The zero value is an untriggered event ready for use, and Reset re-arms
// a triggered one so a record that is resubmitted keeps its event.
type Event struct {
	q         WaitQueue
	triggered bool
}

// NewEvent returns an untriggered event.
func NewEvent(_ *Env) *Event { return &Event{} }

// Triggered reports whether Trigger has been called.
func (ev *Event) Triggered() bool { return ev.triggered }

// Wait parks p until the event triggers.
func (ev *Event) Wait(p *Proc) {
	for !ev.triggered {
		ev.q.Wait(p)
	}
}

// Trigger fires the event, waking all waiters. Triggering twice is a no-op.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.q.WakeAll()
}

// Reset re-arms the event for another round. A waiter that Trigger woke
// but that has not run yet re-checks, finds the event untriggered and
// parks for the new round.
func (ev *Event) Reset() { ev.triggered = false }

// Mutex is a simple blocking lock in virtual time. The simulation kernel is
// cooperative, so a Mutex is only needed when a process may block while a
// critical section must stay closed to others.
type Mutex struct {
	locked bool
	q      WaitQueue
}

// NewMutex returns an unlocked mutex.
func NewMutex(_ *Env) *Mutex { return &Mutex{} }

// Lock acquires the mutex, parking while it is held elsewhere.
func (m *Mutex) Lock(p *Proc) {
	for m.locked {
		m.q.Wait(p)
	}
	m.locked = true
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	m.locked = false
	m.q.WakeOne()
}
