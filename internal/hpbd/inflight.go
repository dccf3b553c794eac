package hpbd

import (
	"iter"

	"hpbd/internal/sim"
)

// inflight lists the requests the device owes a completion — queued for
// the sender or holding a link slot — in ascending handle order, so every
// walk is in handle order too, and holds the queue that feeds the sender.
type inflight struct {
	env   *sim.Env
	root  phys // list sentinel: root.next is the oldest handle, root.prev the newest
	nextH uint64
	sendQ *sim.Chan[*phys]
	wdQ   *sim.WaitQueue // parks the watchdog while the list is empty
}

func (t *inflight) init(env *sim.Env) {
	t.env, t.sendQ, t.wdQ = env, sim.NewChan[*phys](env, 0), sim.NewWaitQueue(env)
	t.root.prev, t.root.next = &t.root, &t.root
}

func (t *inflight) empty() bool { return t.root.next == &t.root }

// stamp gives ph a fresh handle: a late reply to an earlier attempt finds
// only that attempt's zombie slot.
func (t *inflight) stamp(ph *phys) {
	t.nextH++
	ph.handle = t.nextH
	ph.timedOut = false
}

// hold links a stamped request in from the tail; only a retry that waited
// out its backoff lands behind newer handles.
func (t *inflight) hold(ph *phys) {
	at := t.root.prev
	for at != &t.root && at.handle > ph.handle {
		at = at.prev
	}
	ph.prev, ph.next = at, at.next
	at.next.prev, at.next = ph, ph
}

// enqueue holds a stamped request and hands it to the sender, waking an
// armed watchdog that parked on an empty list.
func (t *inflight) enqueue(ph *phys) {
	ph.enqAt = t.env.Now()
	t.hold(ph)
	t.sendQ.TrySend(ph)
	t.wdQ.WakeAll()
}

// admit is stamp then enqueue.
func (t *inflight) admit(ph *phys) {
	t.stamp(ph)
	t.enqueue(ph)
}

// take unlinks ph, reporting false if it was not in the list; the caller
// settles it exactly once.
func (t *inflight) take(ph *phys) bool {
	if ph.next == nil {
		return false
	}
	ph.prev.next, ph.next.prev = ph.next, ph.prev
	ph.prev, ph.next = nil, nil
	return true
}

// all walks the list in handle order. The body may take the request it
// visits and nothing else — settling one settles at most it and a
// carrier's constituents, which the list does not hold.
func (t *inflight) all() iter.Seq[*phys] {
	return func(yield func(*phys) bool) {
		for ph := t.root.next; ph != &t.root; {
			next := ph.next
			if !yield(ph) {
				return
			}
			ph = next
		}
	}
}

// on counts the requests bound to link, or all of them for a nil link.
func (t *inflight) on(link *serverLink) (n int) {
	for ph := range t.all() {
		if link == nil || ph.link == link {
			n++
		}
	}
	return n
}

// reqSlot is one place in a link's credit window: a flow-control credit,
// a control-message staging buffer and, until its reply lands, one of the
// link's reply buffers. It is free (h == 0), live (ph holds it under
// handle h) or a zombie (ph nil): its request was pulled back, and the
// slot stays taken until the late reply to h lands or the link fails.
type reqSlot struct {
	h   uint64
	ph  *phys
	at  sim.Time // when h went on the wire
	idx int      // the staging buffer's index in the link's reqMR
}

// take gives ph a free slot at now; the window must not be full.
func (l *serverLink) take(ph *phys, now sim.Time) {
	s := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	s.h, s.ph, s.at = ph.handle, ph, now
	ph.slot = s
}

// lookup finds the slot, live or zombie, that handle h holds on the link.
//
//hpbd:hotpath
func (l *serverLink) lookup(h uint64) *reqSlot {
	for i := range l.slots {
		if l.slots[i].h == h {
			return &l.slots[i]
		}
	}
	return nil
}

// release is the one place a flow-control credit comes back: s is free
// again and a sender stalled on the window re-checks.
func (l *serverLink) release(s *reqSlot) {
	if s.ph != nil {
		s.ph.slot = nil
	}
	*s = reqSlot{idx: s.idx}
	l.free = append(l.free, s)
	l.slotQ.WakeAll()
}

// releaseAll frees every taken slot, zombies included: no reply will land.
func (l *serverLink) releaseAll() {
	for i := range l.slots {
		if l.slots[i].h != 0 {
			l.release(&l.slots[i])
		}
	}
}

// cancel pulls a sent request back off the wire: it leaves the list and
// its slot, which stays a zombie until the late reply lands.
func (d *Device) cancel(ph *phys) {
	d.inflight.take(ph)
	ph.slot.ph, ph.slot = nil, nil
}

// wedged reports whether every slot of the link is a zombie that went on
// the wire at or before since.
func (l *serverLink) wedged(since sim.Time) bool {
	for i := range l.slots {
		if s := &l.slots[i]; s.h == 0 || s.ph != nil || s.at > since {
			return false
		}
	}
	return true
}
