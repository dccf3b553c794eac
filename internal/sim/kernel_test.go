package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

func TestHeapPopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	env := NewEnv()
	var want []event
	for i := 0; i < 10000; i++ {
		// Few distinct instants, so seq breaks many ties; pops interleaved
		// with pushes exercise sift-down on a heap of changing size.
		ev := event{at: Time(rng.Intn(200)), seq: uint64(i + 1)}
		env.push(ev)
		want = append(want, ev)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
	for i, w := range want {
		got := env.pop()
		if got.at != w.at || got.seq != w.seq {
			t.Fatalf("pop %d = (%d, %d), want (%d, %d)", i, got.at, got.seq, w.at, w.seq)
		}
	}
	if len(env.events) != 0 {
		t.Errorf("%d events left after popping all", len(env.events))
	}
}

func TestRingFIFOWrapGrowRemove(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	// Push 3 / pop 2 walks head around the buffer while it grows.
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if v, ok := r.Pop(); !ok || v != want {
				t.Fatalf("Pop = %d, %v, want %d", v, ok, want)
			}
			want++
		}
	}
	if r.Len() != next-want {
		t.Fatalf("Len = %d, want %d", r.Len(), next-want)
	}
	r.RemoveAt(0)
	r.RemoveAt(r.Len() - 1)
	r.RemoveAt(5)
	want++ // first element gone
	for i := 0; r.Len() > 0; i++ {
		if i == 5 {
			want++ // the one removed from the middle
		}
		if v, _ := r.Pop(); v != want {
			t.Fatalf("after RemoveAt: element %d = %d, want %d", i, v, want)
		}
		want++
	}
	if want != next-1 {
		t.Errorf("drained up to %d, want %d (last element removed)", want, next-1)
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop on empty ring succeeded")
	}
}

// steadyAllocs reports allocations per 100us slice of an already-running
// simulation.
func steadyAllocs(env *Env) float64 {
	env.RunUntil(env.Now().Add(Millisecond)) // reach working depth
	return testing.AllocsPerRun(20, func() {
		env.RunUntil(env.Now().Add(100 * Microsecond))
	})
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	t.Run("Sleep", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		env.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		})
		if n := steadyAllocs(env); n != 0 {
			t.Errorf("%v allocs per 100 sleeps, want 0", n)
		}
	})
	t.Run("After", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		var tick func()
		tick = func() { env.After(Microsecond, tick) }
		tick()
		if n := steadyAllocs(env); n != 0 {
			t.Errorf("%v allocs per 100 callbacks, want 0", n)
		}
	})
	t.Run("ChanPingPong", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		ping, pong := NewChan[int](env, 1), NewChan[int](env, 1)
		env.Go("echo", func(p *Proc) {
			for {
				v, _ := ping.Recv(p)
				pong.Send(p, v)
			}
		})
		env.Go("driver", func(p *Proc) {
			for {
				ping.Send(p, 1)
				pong.Recv(p)
				p.Sleep(Microsecond)
			}
		})
		if n := steadyAllocs(env); n != 0 {
			t.Errorf("%v allocs per 100 round trips, want 0", n)
		}
	})
}

// A whole Run of a two-process ping-pong, kicked from outside and
// drained back to both processes parked, allocates nothing.
func TestRunPingPongAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	ping, pong := NewChan[int](env, 1), NewChan[int](env, 1)
	kick := NewWaitQueue(env)
	env.Go("echo", func(p *Proc) {
		for {
			v, _ := ping.Recv(p)
			pong.Send(p, v)
		}
	})
	env.Go("driver", func(p *Proc) {
		for {
			kick.Wait(p)
			for i := 0; i < 100; i++ {
				ping.Send(p, i)
				pong.Recv(p)
			}
		}
	})
	env.Run()
	if n := testing.AllocsPerRun(20, func() {
		kick.WakeOne()
		env.Run()
	}); n != 0 {
		t.Errorf("%v allocs per Run of 100 round trips, want 0", n)
	}
	if kick.Len() != 1 || env.Parked() != 2 {
		t.Errorf("after Run: kick queue %d, parked %d; want 1 and 2", kick.Len(), env.Parked())
	}
}

// A queue that holds one waiter at a time never grows its ring, even on
// first use: every round here waits on a queue nobody used before.
func TestOneWaiterAllocBudget(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	qs := make([]WaitQueue, 8192)
	waits, wakes := 0, 0
	env.Go("waiter", func(p *Proc) {
		for ; ; waits++ {
			qs[waits%len(qs)].Wait(p)
		}
	})
	env.Go("waker", func(p *Proc) {
		for ; ; wakes++ {
			p.Sleep(Microsecond)
			qs[wakes%len(qs)].WakeOne()
		}
	})
	if n := steadyAllocs(env); n != 0 {
		t.Errorf("%v allocs per 100 wait/wake rounds, want 0", n)
	}
	if wakes >= len(qs) {
		t.Fatalf("%d rounds reused a queue: the budget no longer covers first use", wakes)
	}
}

func TestRunUntilNeverMovesClockBackwards(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.After(Second, func() {})
	env.RunUntil(Time(10 * Microsecond))
	if got := env.RunUntil(Time(5 * Microsecond)); got != Time(10*Microsecond) {
		t.Errorf("RunUntil(5us) after RunUntil(10us) returned %v, want 10us", got)
	}
	if env.Now() != Time(10*Microsecond) {
		t.Errorf("Now = %v, want 10us", env.Now())
	}
}

func TestSplitRunVisitsProcsInSameOrder(t *testing.T) {
	// Control returns to the caller at every RunUntil boundary; the visit
	// order must not notice.
	run := func(stops ...Time) []string {
		env := NewEnv()
		defer env.Close()
		var visits []string
		ch := NewChan[int](env, 2)
		for i := 0; i < 8; i++ {
			i := i
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 6; k++ {
					p.Sleep(Duration(1+(i*7+k*3)%5) * Microsecond)
					visits = append(visits, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
					if i%2 == 0 {
						ch.Send(p, i)
					} else {
						ch.RecvTimeout(p, 2*Microsecond)
					}
				}
			})
		}
		env.After(4*Microsecond, func() { visits = append(visits, "cb") })
		for _, s := range stops {
			env.RunUntil(s)
		}
		env.Run()
		return visits
	}
	whole := run()
	split := run(Time(3*Microsecond), Time(7*Microsecond))
	if len(whole) < 40 {
		t.Fatalf("scenario visited only %d steps", len(whole))
	}
	if fmt.Sprint(whole) != fmt.Sprint(split) {
		t.Errorf("visit order differs:\n whole %v\n split %v", whole, split)
	}
}

func TestStaleTimerDoesNotWakePlainWait(t *testing.T) {
	// Woken early, the process parks again with no wake of its own; the
	// abandoned timer's instant passes (the clock still visits it) and must
	// leave the process parked.
	env := NewEnv()
	defer env.Close()
	q, never := NewWaitQueue(env), NewWaitQueue(env)
	resumed := false
	env.Go("w", func(p *Proc) {
		if !q.WaitTimeout(p, 100*Microsecond) {
			t.Error("WaitTimeout reported timeout, want woken")
		}
		never.Wait(p)
		resumed = true
	})
	env.Go("waker", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		q.WakeOne()
	})
	if end := env.Run(); end != Time(100*Microsecond) {
		t.Errorf("Run ended at %v, want 100us (the stale timer's instant)", end)
	}
	if resumed || never.Len() != 1 {
		t.Errorf("stale timer woke the process: resumed=%v, still queued=%d", resumed, never.Len())
	}
}

func TestCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	ch := NewChan[int](env, 0)
	q := NewWaitQueue(env)
	unwound := 0
	env.Go("recv-timeout", func(p *Proc) {
		defer func() { unwound++ }()
		ch.RecvTimeout(p, Second)
		t.Error("RecvTimeout returned during Close")
	})
	env.Go("wait", func(p *Proc) {
		defer func() { unwound++ }()
		q.Wait(p)
		t.Error("Wait returned during Close")
	})
	env.RunUntil(Time(10 * Microsecond))
	for i := 0; i < 3; i++ {
		env.Go("never-started", func(p *Proc) { t.Error("never-started process ran during Close") })
	}
	if env.Parked() != 5 {
		t.Fatalf("parked = %d, want 5", env.Parked())
	}
	env.Close()
	if env.Parked() != 0 || unwound != 2 {
		t.Errorf("after Close: parked = %d (want 0), unwound = %d (want 2)", env.Parked(), unwound)
	}
	// A killed coroutine's goroutine is gone by the time Close returns;
	// the grace loop only covers runtime bookkeeping.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before the Env existed", n, before)
	}
}

// Every process's goroutine exists once Go returns: Run only switches
// between them and starts none.
func TestRunStartsNoGoroutine(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	q := NewWaitQueue(env)
	for i := 0; i < 4; i++ {
		env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond)
			q.Wait(p) // stay parked, so no exit lowers the count either
		})
	}
	before := runtime.NumGoroutine()
	env.Run()
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
	if q.Len() != 4 {
		t.Errorf("%d processes reached the queue, want 4", q.Len())
	}
}

// A panic in a process comes out of Run on the caller's goroutine,
// annotated with the process name, and Close still unwinds the rest.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	q := NewWaitQueue(env)
	unwound := 0
	for i := 0; i < 3; i++ {
		env.Go("waiter", func(p *Proc) {
			defer func() { unwound++ }()
			q.Wait(p)
		})
	}
	env.Go("bomb", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	env.Go("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(Second)
	})
	func() {
		defer func() {
			const want = `sim: process "bomb" panicked: boom`
			if r := recover(); r != want {
				t.Errorf("Run panicked with %v, want %q", r, want)
			}
		}()
		env.Run()
		t.Error("Run returned normally")
	}()
	env.Go("never-started", func(p *Proc) { t.Error("never-started process ran during Close") })
	env.Close()
	if env.Parked() != 0 || unwound != 4 {
		t.Errorf("after Close: parked = %d (want 0), unwound = %d (want 4)", env.Parked(), unwound)
	}
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after Close, %d before the Env existed", n, before)
	}
}

// A process spawned from inside a process first runs in its own (at, seq)
// slot: after every event already queued for that instant, before any
// scheduled later. The order below is the one the kernel has always
// produced; #n is the scheduling sequence number at each step.
func TestGoFromProcOrder(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var order []string
	log := func(s string) { order = append(order, fmt.Sprintf("%s@%d#%d", s, env.Now(), env.seq)) }
	env.Go("parent", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		env.After(0, func() { log("cb-before") })
		env.Go("child", func(c *Proc) {
			log("child")
			c.Yield()
			log("child-yielded")
			env.Go("grandchild", func(*Proc) { log("grandchild") })
		})
		env.After(0, func() { log("cb-after") })
		log("parent-spawned")
		p.Yield()
		log("parent-yielded")
	})
	env.Go("peer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		log("peer")
		p.Yield()
		log("peer-yielded")
	})
	env.Run()
	want := []string{
		"parent-spawned@5000#7", "peer@5000#8", "cb-before@5000#9", "child@5000#9",
		"cb-after@5000#10", "parent-yielded@5000#10", "peer-yielded@5000#10",
		"child-yielded@5000#10", "grandchild@5000#11",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order:\n got %q\nwant %q", order, want)
	}
}
