package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	end := env.Run()
	if woke != Time(5*Microsecond) {
		t.Errorf("woke at %v, want 5us", woke)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestEventOrderingFIFOAtSameInstant(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Microsecond)
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var log []string
		ch := NewChan[int](env, 0)
		for i := 0; i < 4; i++ {
			i := i
			env.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(env.Rand.Intn(100)) * Microsecond)
					ch.Send(p, i*10+j)
				}
			})
		}
		env.Go("cons", func(p *Proc) {
			for k := 0; k < 20; k++ {
				v, _ := ch.Recv(p)
				log = append(log, fmt.Sprintf("%v:%d", p.Now(), v))
			}
		})
		env.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("got %d and %d events, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv()
	var at Time
	env.After(3*Millisecond, func() { at = env.Now() })
	env.Run()
	if at != Time(3*Millisecond) {
		t.Errorf("callback at %v, want 3ms", at)
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	count := 0
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Millisecond)
			count++
		}
	})
	env.RunUntil(Time(10*Millisecond) + 1)
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	env.Close()
}

// Waiters wake in arrival order whether they sat in the inline slot (the
// first) or in the ring behind it, one at a time or all at once.
func TestWaitQueueFIFO(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		for _, all := range []bool{false, true} {
			env := NewEnv()
			q := NewWaitQueue(env)
			var order []int
			for i := 0; i < n; i++ {
				i := i
				env.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
					p.Sleep(Duration(i) * Microsecond) // enforce arrival order
					q.Wait(p)
					order = append(order, i)
				})
			}
			env.Go("waker", func(p *Proc) {
				p.Sleep(10 * Microsecond)
				if q.Len() != n {
					t.Errorf("n=%d: Len = %d with everyone parked", n, q.Len())
				}
				if all {
					q.WakeAll()
				}
				for i := 0; i < n && !all; i++ {
					if !q.WakeOne() {
						t.Errorf("n=%d: WakeOne %d found nobody", n, i)
					}
					if q.Len() != n-1-i {
						t.Errorf("n=%d: Len = %d after %d wakes", n, q.Len(), i+1)
					}
					p.Yield()
				}
				if q.WakeOne() {
					t.Errorf("n=%d: WakeOne woke someone from an empty queue", n)
				}
			})
			env.Run()
			if len(order) != n {
				t.Fatalf("n=%d all=%v: %d waiters woke", n, all, len(order))
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("n=%d all=%v: wake order %v, want FIFO", n, all, order)
				}
			}
		}
	}
}

// A timed-out waiter withdraws from wherever it sits — the inline slot or
// the ring — and those behind it keep their order.
func TestWaitTimeoutWithdrawsFromSlotAndRing(t *testing.T) {
	for timed := 0; timed < 3; timed++ {
		env := NewEnv()
		q := NewWaitQueue(env)
		var order []int
		for i := 0; i < 3; i++ {
			i := i
			env.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(Duration(i) * Microsecond)
				if i != timed {
					q.Wait(p)
				} else if q.WaitTimeout(p, 5*Microsecond) {
					t.Errorf("timed=%d: WaitTimeout reported woken", timed)
				}
				order = append(order, i)
			})
		}
		env.Go("waker", func(p *Proc) {
			p.Sleep(20 * Microsecond)
			if q.Len() != 2 {
				t.Errorf("timed=%d: Len = %d after the withdrawal, want 2", timed, q.Len())
			}
			q.WakeAll()
		})
		env.Run()
		want := []int{timed, (timed + 1) % 3, (timed + 2) % 3}
		if want[1] > want[2] {
			want[1], want[2] = want[2], want[1]
		}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("timed=%d: order %v, want %v", timed, order, want)
		}
	}
}

func TestWaitTimeoutFires(t *testing.T) {
	env := NewEnv()
	q := NewWaitQueue(env)
	var woken bool
	var at Time
	env.Go("w", func(p *Proc) {
		woken = q.WaitTimeout(p, 50*Microsecond)
		at = p.Now()
	})
	env.Run()
	if woken {
		t.Error("WaitTimeout reported woken, want timeout")
	}
	if at != Time(50*Microsecond) {
		t.Errorf("timed out at %v, want 50us", at)
	}
	if q.Len() != 0 {
		t.Errorf("queue still holds %d waiters after timeout", q.Len())
	}
}

func TestWaitTimeoutWoken(t *testing.T) {
	env := NewEnv()
	q := NewWaitQueue(env)
	var woken bool
	var at Time
	env.Go("w", func(p *Proc) {
		woken = q.WaitTimeout(p, 50*Microsecond)
		at = p.Now()
	})
	env.Go("waker", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		q.WakeOne()
	})
	env.Run()
	if !woken {
		t.Error("WaitTimeout reported timeout, want woken")
	}
	if at != Time(10*Microsecond) {
		t.Errorf("woke at %v, want 10us", at)
	}
}

func TestStaleTimerDoesNotRewake(t *testing.T) {
	// After an early wake-up, the abandoned timeout event must not disturb
	// the process's next park.
	env := NewEnv()
	q := NewWaitQueue(env)
	var secondWake Time
	env.Go("w", func(p *Proc) {
		q.WaitTimeout(p, 100*Microsecond) // woken at 10us below
		p.Sleep(Second)                   // stale timer at 100us must not cut this short
		secondWake = p.Now()
	})
	env.Go("waker", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		q.WakeOne()
	})
	env.Run()
	want := Time(10*Microsecond + Second)
	if secondWake != want {
		t.Errorf("second wake at %v, want %v", secondWake, want)
	}
}

func TestChanBlockingAndOrder(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 2)
	var got []int
	var sendDone Time
	env.Go("sender", func(p *Proc) {
		for i := 0; i < 4; i++ {
			ch.Send(p, i) // third send blocks until receiver drains
		}
		sendDone = p.Now()
	})
	env.Go("recv", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		for i := 0; i < 4; i++ {
			v, ok := ch.Recv(p)
			if !ok {
				t.Error("unexpected closed chan")
			}
			got = append(got, v)
		}
	})
	env.Run()
	if sendDone != Time(7*Microsecond) {
		t.Errorf("sender finished at %v, want 7us (blocked on full buffer)", sendDone)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("recv order %v, want ascending", got)
		}
	}
}

func TestChanRecvTimeout(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	var ok1, ok2 bool
	env.Go("r", func(p *Proc) {
		_, ok1 = ch.RecvTimeout(p, 10*Microsecond) // nothing arrives: timeout
		v, ok := ch.RecvTimeout(p, 100*Microsecond)
		ok2 = ok && v == 42
	})
	env.Go("s", func(p *Proc) {
		p.Sleep(30 * Microsecond)
		ch.Send(p, 42)
	})
	env.Run()
	if ok1 {
		t.Error("first RecvTimeout should have timed out")
	}
	if !ok2 {
		t.Error("second RecvTimeout should have received 42")
	}
}

func TestChanClose(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	var vals []int
	var closedOK bool
	env.Go("r", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				closedOK = true
				return
			}
			vals = append(vals, v)
		}
	})
	env.Go("s", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		p.Sleep(Microsecond)
		ch.Close()
	})
	env.Run()
	if !closedOK || len(vals) != 2 {
		t.Errorf("vals=%v closedOK=%v", vals, closedOK)
	}
}

func TestMutexExcludes(t *testing.T) {
	env := NewEnv()
	m := NewMutex(env)
	var inside bool
	var violations int
	for i := 0; i < 4; i++ {
		env.Go(fmt.Sprintf("m%d", i), func(p *Proc) {
			m.Lock(p)
			if inside {
				violations++
			}
			inside = true
			p.Sleep(5 * Microsecond)
			inside = false
			m.Unlock()
		})
	}
	env.Run()
	if violations != 0 {
		t.Errorf("%d mutual exclusion violations", violations)
	}
}

func TestEventBroadcast(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	woke := 0
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			ev.Wait(p)
			woke++
		})
	}
	env.Go("late", func(p *Proc) {
		p.Sleep(20 * Microsecond)
		ev.Wait(p) // already triggered: returns immediately
		woke++
	})
	env.After(10*Microsecond, ev.Trigger)
	env.Run()
	if woke != 4 {
		t.Errorf("woke = %d, want 4", woke)
	}
}

// Reset re-arms a triggered event: a waiter Trigger woke that has not run
// yet re-checks and parks for the next round, and so does a newcomer.
func TestEventResetReparksLateChecker(t *testing.T) {
	env := NewEnv()
	var ev Event
	var woke []Time
	env.Go("early", func(p *Proc) {
		ev.Wait(p)
		woke = append(woke, p.Now())
	})
	env.Go("cycle", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		ev.Trigger()
		ev.Reset() // before "early" has run
		if ev.Triggered() {
			t.Error("Triggered after Reset")
		}
		p.Sleep(10 * Microsecond)
		ev.Trigger()
	})
	env.Go("late", func(p *Proc) {
		p.Sleep(15 * Microsecond)
		ev.Wait(p)
		woke = append(woke, p.Now())
	})
	env.Run()
	if len(woke) != 2 || woke[0] != Time(20*Microsecond) || woke[1] != Time(20*Microsecond) {
		t.Errorf("waiters got through at %v, want both at the second Trigger (20us)", woke)
	}
}

func TestCloseKillsParked(t *testing.T) {
	env := NewEnv()
	q := NewWaitQueue(env)
	started := 0
	env.Go("stuck", func(p *Proc) {
		started++
		q.Wait(p) // never woken
		t.Error("stuck process resumed unexpectedly")
	})
	env.Run()
	if env.Parked() != 1 {
		t.Fatalf("parked = %d, want 1", env.Parked())
	}
	env.Close()
	if env.Parked() != 0 {
		t.Errorf("parked after Close = %d, want 0", env.Parked())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{25 * Microsecond, "25.00us"},
		{3 * Millisecond, "3.000ms"},
		{12 * Second, "12.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// TestParseDuration: the integer and fractional parts scale exactly, and
// a value past the largest Duration is refused, also one whose wrapped
// product would land positive ("20000000000s" once parsed to about 1.55e9 s).
func TestParseDuration(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Duration
	}{
		{"500us", 500 * Microsecond},
		{"1.5ms", 1500 * Microsecond},
		{"2s", 2 * Second},
		{".25us", 250 * Nanosecond},
		{"9223372036854775807ns", math.MaxInt64},
		{"9223372036.854775807s", math.MaxInt64},
	} {
		if got, err := ParseDuration(c.in); err != nil || got != c.want {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", c.in, int64(got), err, int64(c.want))
		}
	}
	for _, in := range []string{
		"9223372036854775808ns",
		"9223372036.854775808s",
		"20000000000s",
		"100000000000000000000ms",
	} {
		if got, err := ParseDuration(in); err == nil {
			t.Errorf("ParseDuration(%q) = %d, want an overflow error", in, int64(got))
		}
	}
}

// Property: for any set of sleep durations, processes complete in
// non-decreasing time order equal to their duration, and the clock ends at
// the max.
func TestQuickSleepOrdering(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		env := NewEnv()
		type rec struct {
			idx int
			at  Time
		}
		var recs []rec
		var max Duration
		for i, d16 := range ds {
			d := Duration(d16) * Nanosecond
			if d > max {
				max = d
			}
			i := i
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				recs = append(recs, rec{i, p.Now()})
			})
		}
		end := env.Run()
		if end != Time(max) {
			return false
		}
		for _, r := range recs {
			if r.at != Time(Duration(ds[r.idx])*Nanosecond) {
				return false
			}
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].at < recs[i-1].at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a bounded channel never holds more than its capacity and
// preserves FIFO order for any interleaving of producer sleeps.
func TestQuickChanInvariants(t *testing.T) {
	f := func(delays []uint8, capacity uint8) bool {
		capy := int(capacity%8) + 1
		env := NewEnv()
		ch := NewChan[int](env, capy)
		n := len(delays)
		var got []int
		violated := false
		env.Go("prod", func(p *Proc) {
			for i, d := range delays {
				p.Sleep(Duration(d) * Nanosecond)
				ch.Send(p, i)
				if ch.Len() > capy {
					violated = true
				}
			}
		})
		env.Go("cons", func(p *Proc) {
			for i := 0; i < n; i++ {
				v, ok := ch.Recv(p)
				if !ok {
					violated = true
					return
				}
				got = append(got, v)
			}
		})
		env.Run()
		if violated || len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
