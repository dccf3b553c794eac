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
// to wake its reply-processing kernel thread.
type CQ struct {
	env           *sim.Env
	name          string
	entries       sim.Ring[CQE]
	waiters       sim.WaitQueue
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

// push appends a completion and delivers notifications.
func (c *CQ) push(e CQE) {
	c.entries.Push(e)
	c.waiters.WakeAll()
	if c.armed && c.handler != nil && (!c.solicitedOnly || e.Solicited || e.Status != StatusSuccess) {
		c.armed = false
		fn := c.handler
		c.env.After(c.eventDelay, fn)
	}
}
