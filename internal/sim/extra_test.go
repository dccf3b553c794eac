package sim

import (
	"fmt"
	"testing"
)

func TestTrySendTryRecv(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 2)
	if _, ok := ch.TryRecv(); ok {
		t.Error("TryRecv on empty chan succeeded")
	}
	if !ch.TrySend(1) || !ch.TrySend(2) {
		t.Error("TrySend within capacity failed")
	}
	if ch.TrySend(3) {
		t.Error("TrySend beyond capacity succeeded")
	}
	if v, ok := ch.TryRecv(); !ok || v != 1 {
		t.Errorf("TryRecv = %d, %v", v, ok)
	}
	if ch.Len() != 1 {
		t.Errorf("Len = %d", ch.Len())
	}
	env.Close()
}

func TestSendOnClosedChanPanics(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	ch.Close()
	if !ch.Closed() {
		t.Error("Closed() false after Close")
	}
	defer func() {
		if recover() == nil {
			t.Error("TrySend on closed chan did not panic")
		}
		env.Close()
	}()
	ch.TrySend(1)
}

func TestAfterAndProcInterleaving(t *testing.T) {
	// Events at the same instant run in the order they were *scheduled*:
	// the callback is stamped at setup time, while the proc's sleep event
	// is stamped when the proc runs (after its start event), so the
	// callback fires first.
	env := NewEnv()
	var order []string
	env.Go("p", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		order = append(order, "proc")
	})
	env.After(10*Microsecond, func() { order = append(order, "cb") })
	env.Run()
	if len(order) != 2 || order[0] != "cb" || order[1] != "proc" {
		t.Errorf("order = %v, want [cb proc] (schedule-time FIFO)", order)
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.After(Duration(100), func() { fired++ })
	env.After(Duration(101), func() { fired++ })
	env.RunUntil(Time(100))
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (boundary inclusive)", fired)
	}
	env.Run()
	if fired != 2 {
		t.Errorf("fired = %d after full Run", fired)
	}
}

func TestEnvRandDeterministic(t *testing.T) {
	a, b := NewEnv(), NewEnv()
	for i := 0; i < 100; i++ {
		if a.Rand.Int63() != b.Rand.Int63() {
			t.Fatal("fresh envs diverge in Rand stream")
		}
	}
	a.Close()
	b.Close()
}

func TestEnvString(t *testing.T) {
	env := NewEnv()
	if s := env.String(); s == "" {
		t.Error("empty String()")
	}
	env.Close()
}

func TestIdle(t *testing.T) {
	env := NewEnv()
	if !env.Idle() {
		t.Error("fresh env not idle")
	}
	env.After(Microsecond, func() {})
	if env.Idle() {
		t.Error("env with pending event reported idle")
	}
	env.Run()
	if !env.Idle() {
		t.Error("drained env not idle")
	}
	env.Close()
}

func TestManyProcsStress(t *testing.T) {
	// A few thousand processes with mixed primitives must drain cleanly
	// and deterministically.
	run := func() Time {
		env := NewEnv()
		ch := NewChan[int](env, 4)
		mu := NewMutex(env)
		for i := 0; i < 500; i++ {
			i := i
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				mu.Lock(p)
				p.Sleep(Duration(i%17) * Microsecond)
				mu.Unlock()
				ch.Send(p, i)
			})
		}
		env.Go("drain", func(p *Proc) {
			for i := 0; i < 500; i++ {
				ch.Recv(p)
			}
		})
		end := env.Run()
		env.Close()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Errorf("stress runs diverge: %v vs %v", a, b)
	}
}
