package sim

import (
	"fmt"
	"iter"
)

// killedError is the panic value used to unwind processes on Env.Close.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: process " + k.name + " killed" }

// Proc is a simulated process. A Proc's function runs as a runtime
// coroutine, but the kernel guarantees that at most one process executes at
// a time and that all blocking primitives return at deterministic virtual
// times.
type Proc struct {
	env  *Env
	id   uint64 // spawn sequence number: a deterministic identity for ordering
	name string
	// resume switches into the coroutine until it parks, returning the
	// process to run next (nil: back to the Run caller), or until it exits
	// (ok false). stop drops a coroutine that never started.
	resume  func() (next *Proc, ok bool)
	stop    func()
	yield   func(next *Proc) bool // inside the coroutine: park, naming the successor
	wake    uint64                // seq of the pending wake event, 0 = none (for cancellation)
	started bool
	done    bool
	killed  bool
}

// ID returns the process's spawn sequence number, unique within its Env.
func (p *Proc) ID() uint64 { return p.id }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name given at creation.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// body is the coroutine: it parks once as soon as it is built, so that the
// goroutine exists before the start event, and runs fn when first resumed.
func (p *Proc) body(fn func(*Proc)) iter.Seq[*Proc] {
	return func(yield func(*Proc) bool) {
		p.yield = yield
		if !yield(nil) {
			return // dropped by Close before its start event
		}
		p.started = true
		defer p.exit()
		fn(p)
	}
}

// exit retires the process. A kill unwinds quietly; any other panic is
// annotated with the process name and propagates out of the coroutine to
// the Run caller that resumed it.
func (p *Proc) exit() {
	r := recover()
	p.done = true
	delete(p.env.procs, p)
	if r != nil {
		if _, ok := r.(killedError); !ok {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}
}

// park blocks the process until some other party schedules its resumption.
// The caller must have arranged a wake-up (a scheduled event or membership
// in a wait queue) before calling park. The parking process runs the
// dispatch loop itself; if the next live wake is its own it returns
// without switching at all, otherwise it yields the successor to the Run
// caller, which resumes it.
func (p *Proc) park() {
	if next := p.env.next(); next != p {
		p.yield(next)
	}
	if p.killed {
		panic(killedError{p.name})
	}
}

// Sleep suspends the process for d of virtual time. d <= 0 yields: the
// process is rescheduled at the current instant, after already-queued
// events at this time.
func (p *Proc) Sleep(d Duration) {
	// schedule clamps an instant in the past to now.
	p.env.schedule(p.env.now.Add(d), p, nil)
	p.park()
}

// Yield lets any other runnable process scheduled for the current instant
// run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }
