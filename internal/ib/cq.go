package ib

import "hpbd/internal/sim"

// CQE is a completion queue entry.
type CQE struct {
	WRID      uint64
	Op        Opcode
	Status    Status
	QP        *QP
	ByteLen   int
	Solicited bool
}

// CQ is a completion queue. Completions can be consumed by polling (Poll,
// WaitPoll) or by a completion event handler armed with ReqNotify, which
// mirrors the VAPI EVAPI_set_comp_eventh mechanism the paper's client uses
// to wake its reply-processing kernel thread. A consumer that only
// demultiplexes — it never sleeps and charges no virtual time — installs a
// sink instead of parking a process in WaitPoll (SetSink).
type CQ struct {
	env           *sim.Env
	name          string
	entries       sim.Ring[CQE]
	waiters       sim.WaitQueue
	sink          func(CQE) // consumes every completion; nil: Poll/WaitPoll do
	drainFn       func()    // drain, bound once
	draining      bool      // a drain is scheduled or running
	handler       func()
	armed         bool
	solicitedOnly bool
	eventDelay    sim.Duration
}

// CreateCQ makes an empty completion queue on the HCA.
func (h *HCA) CreateCQ(name string) *CQ {
	return &CQ{
		env:        h.fabric.env,
		name:       name,
		eventDelay: h.fabric.cfg.EventDelay,
	}
}

// Len returns the number of pending completions.
func (c *CQ) Len() int { return c.entries.Len() }

// Poll removes and returns the oldest completion, if any.
func (c *CQ) Poll() (CQE, bool) { return c.entries.Pop() }

// WaitPoll blocks the calling process until a completion is available and
// returns it. This models busy-poll semantics without burning host CPU in
// the model; use ReqNotify + handler for the event-driven design.
func (c *CQ) WaitPoll(p *sim.Proc) CQE {
	for {
		if e, ok := c.Poll(); ok {
			return e
		}
		c.waiters.Wait(p)
	}
}

// WaitPollTimeout blocks up to d for a completion; ok is false on timeout.
// It models a bounded busy-poll (the paper's server spins 200 us before
// yielding the CPU).
func (c *CQ) WaitPollTimeout(p *sim.Proc, d sim.Duration) (CQE, bool) {
	deadline := c.env.Now().Add(d)
	for {
		if e, ok := c.Poll(); ok {
			return e, true
		}
		remain := deadline.Sub(c.env.Now())
		if remain <= 0 {
			return CQE{}, false
		}
		c.waiters.WaitTimeout(p, remain)
	}
}

// SetEventHandler installs fn as the completion event handler. The handler
// runs as a sim.Env.After callback after the configured event delay; it must
// not block (typically it wakes a process).
func (c *CQ) SetEventHandler(fn func()) { c.handler = fn }

// ReqNotify arms the completion event: the next completion (or the next
// solicited completion, if solicitedOnly) fires the handler once, after
// which the CQ must be re-armed. This matches IB semantics where the
// consumer drains the CQ and re-arms before sleeping.
func (c *CQ) ReqNotify(solicitedOnly bool) {
	c.armed = true
	c.solicitedOnly = solicitedOnly
}

// SetSink makes fn the queue's consumer, in place of a process looping on
// WaitPoll: the first completion of a burst schedules one drain at the
// current instant — the slot that process's wake would take — and the
// drain hands fn every queued completion in order, including any that
// arrive while it runs. fn must not block. Install it before the first
// completion; a queue with a sink is not polled.
func (c *CQ) SetSink(fn func(CQE)) {
	c.sink = fn
	c.drainFn = c.drain
}

// drain delivers the queued completions to the sink.
//
//hpbd:hotpath
func (c *CQ) drain() {
	for e, ok := c.entries.Pop(); ok; e, ok = c.entries.Pop() {
		c.sink(e)
	}
	c.draining = false
}

// push appends a completion and delivers notifications.
//
//hpbd:hotpath
func (c *CQ) push(e CQE) {
	//hpbd:allow hotalloc -- the ring grows to the queue's peak backlog, then stays
	c.entries.Push(e)
	if c.sink == nil {
		c.waiters.WakeAll()
	} else if !c.draining {
		c.draining = true
		c.env.After(0, c.drainFn)
	}
	if c.armed && c.handler != nil && (!c.solicitedOnly || e.Solicited || e.Status != StatusSuccess) {
		c.armed = false
		fn := c.handler
		c.env.After(c.eventDelay, fn)
	}
}
