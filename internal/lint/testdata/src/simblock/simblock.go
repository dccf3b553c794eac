// Fixture for the simblock analyzer: real concurrency inside *sim.Proc
// functions is flagged; sim primitives and real concurrency outside proc
// context are not.
package simblock

import (
	"sync"

	"hpbd/internal/sim"
)

func badChannelOps(p *sim.Proc, ch chan int) {
	ch <- 1  // want "raw channel send"
	_ = <-ch // want "raw channel receive"
	select { // want "select in a \\*sim.Proc function"
	case <-ch: // want "raw channel receive"
	default:
	}
	for range ch { // want "range over a real channel"
	}
}

func badGoAndSync(p *sim.Proc, mu *sync.Mutex, wg *sync.WaitGroup) {
	go func() {}() // want "go statement in a \\*sim.Proc function"
	mu.Lock()      // want "sync.Mutex.Lock"
	mu.Unlock()    // want "sync.Mutex.Unlock"
	wg.Wait()      // want "sync.WaitGroup.Wait"
}

func badNestedLit(env *sim.Env, ch chan int) {
	env.Go("worker", func(p *sim.Proc) {
		<-ch // want "raw channel receive"
	})
}

func goodSimPrimitives(p *sim.Proc, env *sim.Env) {
	q := sim.NewWaitQueue(env)
	q.Wait(p)
	mu := sim.NewMutex(env)
	mu.Lock(p)
	mu.Unlock()
	c := sim.NewChan[int](env, 4)
	c.Send(p, 1)
	p.Sleep(sim.Millisecond)
}

func goodOutsideProc(ch chan int, mu *sync.Mutex) {
	// No *sim.Proc parameter: real concurrency is this function's business.
	mu.Lock()
	ch <- 1
	<-ch
	mu.Unlock()
	go func() {}()
}

func goodAnnotated(p *sim.Proc, ch chan int) {
	<-ch //hpbd:allow simblock -- fixture: bridging to a real goroutine at the sim boundary
}
