package sim

import "fmt"

// killedError is the panic value used to unwind processes on Env.Close.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: process " + k.name + " killed" }

// Proc is a simulated process. A Proc's function runs on its own goroutine,
// but the kernel guarantees that at most one process executes at a time and
// that all blocking primitives return at deterministic virtual times.
type Proc struct {
	env    *Env
	id     uint64 // spawn sequence number: a deterministic identity for ordering
	name   string
	resume chan struct{} // capacity 1: the baton holder never waits for us to block
	start  func(*Proc)   // body, until the start event spawns the goroutine
	wake   uint64        // seq of the pending wake event, 0 = none (for cancellation)
	done   bool
	killed bool
}

// ID returns the process's spawn sequence number, unique within its Env.
func (p *Proc) ID() uint64 { return p.id }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name given at creation.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		r := recover()
		p.done = true
		delete(p.env.procs, p)
		if r != nil {
			if _, ok := r.(killedError); !ok {
				// Re-panicking here would crash the whole program from a
				// detached goroutine with a confusing stack; annotate instead.
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
		// The exiting goroutine dispatches until someone else takes over.
		p.env.handoff(p.env.next())
	}()
	fn(p)
}

// park blocks the process until some other party schedules its resumption.
// The caller must have arranged a wake-up (a scheduled event or membership
// in a wait queue) before calling park. The parking goroutine runs the
// dispatch loop itself; if the next live wake is its own it returns
// without switching goroutines at all.
func (p *Proc) park() {
	if next := p.env.next(); next != p {
		p.env.handoff(next)
		<-p.resume
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
