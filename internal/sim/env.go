package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
)

// event is a scheduled occurrence: either the resumption of a parked process
// or a bare callback run inline by whoever is dispatching.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant; never 0
	p   *Proc  // non-nil: resume this process
	fn  func() // non-nil: run this callback inline
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of live processes. An Env is not safe for concurrent use from real
// goroutines other than its own scheduled processes.
type Env struct {
	now      Time
	seq      uint64
	nextProc uint64
	events   []event // 4-ary min-heap of values ordered by (at, seq)
	limit    Time    // bound of the RunUntil in progress, < 0 for none
	procs    map[*Proc]struct{}
	closed   bool

	// Rand is a deterministic source for simulations that need randomness.
	Rand *rand.Rand
}

// NewEnv returns an empty environment with a deterministic random source.
func NewEnv() *Env {
	return &Env{
		procs: make(map[*Proc]struct{}),
		Rand:  rand.New(rand.NewSource(1)),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// schedule queues an event. A process has at most one live wake: scheduling
// another one supersedes (cancels) whatever was pending.
func (e *Env) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	if p != nil {
		p.wake = e.seq
	}
	e.push(event{at: at, seq: e.seq, p: p, fn: fn})
}

func (e *Env) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

func (e *Env) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the proc and closure references for the collector
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		least := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[least]) {
				least = j
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}

// After schedules fn to run after delay d, inline on whichever goroutine is
// dispatching at that instant. fn must not block and must not depend on
// which goroutine runs it; use Go for blocking work.
func (e *Env) After(d Duration, fn func()) {
	e.schedule(e.now.Add(d), nil, fn)
}

// Go starts a new simulated process running fn. The process begins at the
// current virtual time, after the caller next gives up the CPU.
// The name appears in diagnostics. Its coroutine is built and parked
// here, so whatever the process costs the runtime is paid by the caller.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	e.nextProc++
	p := &Proc{env: e, id: e.nextProc, name: name}
	p.resume, p.stop = iter.Pull(p.body(fn))
	p.resume() // runs to the body's first yield
	e.procs[p] = struct{}{}
	e.schedule(e.now, p, nil)
	return p
}

// next is the dispatch loop. Whoever gives up the CPU runs it itself: it
// pops events in (at, seq) order, runs callbacks inline and skips
// cancelled wakes until it finds a process to resume. It returns nil when
// control stays with the Run caller instead: the queue drained, the
// RunUntil limit was reached, or Close is killing processes.
func (e *Env) next() *Proc {
	for len(e.events) > 0 && !e.closed {
		if e.limit >= 0 && e.events[0].at > e.limit {
			if e.now < e.limit {
				e.now = e.limit
			}
			break
		}
		ev := e.pop()
		e.now = ev.at
		if ev.p == nil {
			ev.fn()
			continue
		}
		if ev.p.done || ev.p.wake != ev.seq {
			continue // exited, or superseded by a later wake
		}
		ev.p.wake = 0
		return ev.p
	}
	return nil
}

// Run executes events until the queue drains. It returns the final virtual
// time. Processes still parked on queues when Run returns remain parked;
// use Close to release them.
func (e *Env) Run() Time { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// bound) and returns the virtual time reached: limit if events remain
// beyond it, else the time of the last dispatched event. The clock never
// moves backwards, so a limit in the past dispatches nothing.
//
// The caller is the only resumer: a process that parks yields its
// successor back here rather than switching to it, and after one exits
// the caller dispatches the next itself. A process that panics makes
// RunUntil panic with the value annotated by the process name.
func (e *Env) RunUntil(limit Time) Time {
	e.limit = limit
	for p := e.next(); p != nil; {
		next, ok := p.resume()
		if !ok {
			next = e.next() // p exited
		}
		p = next
	}
	return e.now
}

// Idle reports whether no events remain.
func (e *Env) Idle() bool { return len(e.events) == 0 }

// Parked returns the number of live processes currently blocked.
func (e *Env) Parked() int {
	n := 0
	for p := range e.procs {
		if !p.done {
			n++
		}
	}
	return n
}

// Close terminates every parked process by unwinding it with a kill panic
// that the process wrapper recovers; processes that never started are
// dropped without running. After Close the environment must not be used
// further. It is safe to call Close on an already-closed Env.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// Kill in spawn order: unwinding runs deferred code, which may emit
	// telemetry, so the teardown sequence must not inherit map order.
	live := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		if !p.done {
			live = append(live, p)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, p := range live {
		switch {
		case p.done:
		case !p.started:
			p.done = true
			delete(e.procs, p)
			p.stop()
		default:
			p.killed = true
			p.resume()
		}
	}
}

// String describes the environment state for diagnostics.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now=%v events=%d procs=%d}", e.now, len(e.events), len(e.procs))
}
