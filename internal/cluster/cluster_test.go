package cluster

import (
	"errors"
	"strings"
	"testing"

	"hpbd/internal/hpbd"
	"hpbd/internal/sim"
	"hpbd/internal/vm"
)

// fill drives a node with a simple overcommit workload and returns the
// elapsed virtual time.
func fill(t *testing.T, cfg Config, pages int) sim.Duration {
	t.Helper()
	_, elapsed, err := Run(cfg, func(node *Node) []Proc {
		as := node.VM.NewAddressSpace("w", pages)
		return []Proc{{Name: "w", Run: func(p *sim.Proc) error {
			for i := 0; i < pages; i++ {
				if err := as.Touch(p, i, true); err != nil {
					return err
				}
				p.Sleep(10 * sim.Microsecond)
			}
			return nil
		}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	return elapsed[0]
}

// TestRunReportsWhatStoppedIt covers Run's three failure reports: a
// process that is still parked when the event queue drains is named, not
// returned as an elapsed time of zero; a process's own error comes back
// under its name; and a membership op that fails is reported even though
// every process returned.
func TestRunReportsWhatStoppedIt(t *testing.T) {
	cfg := Config{MemBytes: 1 << 20, Swap: SwapHPBD, SwapBytes: 4 << 20}
	procs := func(fn func(p *sim.Proc, n *Node) error) func(*Node) []Proc {
		return func(n *Node) []Proc {
			return []Proc{
				{Name: "fine", Run: func(*sim.Proc) error { return nil }},
				{Name: "other", Run: func(p *sim.Proc) error { return fn(p, n) }},
			}
		}
	}
	_, _, err := Run(cfg, procs(func(p *sim.Proc, n *Node) error {
		sim.NewEvent(n.Env).Wait(p) // nobody triggers it
		return nil
	}))
	if err == nil || !strings.Contains(err.Error(), "other had not returned") {
		t.Errorf("parked process: err = %v, want it named", err)
	}
	_, _, err = Run(cfg, procs(func(*sim.Proc, *Node) error { return vm.ErrOutOfMemory }))
	if !errors.Is(err, vm.ErrOutOfMemory) || !strings.HasPrefix(err.Error(), "other: ") {
		t.Errorf("failing process: err = %v, want other: %v", err, vm.ErrOutOfMemory)
	}
	cfg.Membership = []MemberOp{{Kind: Drain, Server: "mem9"}}
	node, _, err := Run(cfg, procs(func(*sim.Proc, *Node) error { return nil }))
	if err == nil || len(node.Ops) != 1 || node.Ops[0].Err == nil {
		t.Errorf("failing membership op: err = %v, ops = %+v", err, node.Ops)
	}
}

// TestFailStopClientEndsInOOM is the paper's fail-stop client (no
// recovery) losing a server under swap pressure: every later write-back
// fails, so the run must end with the workload out of memory — before the
// vm reclaim fix kswapd laundered the same pages for ever and Run never
// returned.
func TestFailStopClientEndsInOOM(t *testing.T) {
	client := hpbd.DefaultClientConfig()
	const pages = 4096 // 16 MB over 8 MB of RAM: swapping starts after the crash
	node, _, err := Run(Config{
		MemBytes: 8 << 20, Swap: SwapHPBD, SwapBytes: 16 << 20, Servers: 2,
		Faults: mustSpec(t, "crash@2ms=mem0"), Client: &client,
	}, func(node *Node) []Proc {
		as := node.VM.NewAddressSpace("w", pages)
		return []Proc{{Name: "w", Run: func(p *sim.Proc) error { return touchAll(p, as, pages, true) }}}
	})
	if !errors.Is(err, vm.ErrOutOfMemory) {
		t.Fatalf("err = %v, want %v", err, vm.ErrOutOfMemory)
	}
	if !node.HPBD.Failed() {
		t.Error("the fail-stop device survived its server's crash")
	}
	if got, limit := node.VM.Stats().SwapOuts, 700*node.VM.Config().PhysPages; int(got) > limit {
		t.Errorf("SwapOuts = %d, want <= %d", got, limit)
	}
}

func TestBuildEveryKind(t *testing.T) {
	kinds := []SwapKind{SwapNone, SwapDisk, SwapHPBD, SwapNBDGigE, SwapNBDIPoIB}
	const mem = 2 << 20
	for _, k := range kinds {
		cfg := Config{MemBytes: mem, Swap: k, SwapBytes: 8 << 20}
		pages := 256 // 1 MB: fits for SwapNone
		if k != SwapNone {
			pages = 1024 // 4 MB: must swap
		}
		if e := fill(t, cfg, pages); e <= 0 {
			t.Errorf("%v: elapsed = %v", k, e)
		}
	}
}

func TestHPBDMultiServerSplitsArea(t *testing.T) {
	env := sim.NewEnv()
	node, err := Build(env, Config{
		MemBytes: 2 << 20, Swap: SwapHPBD, SwapBytes: 8 << 20, Servers: 4,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(node.HPBDServers) != 4 {
		t.Fatalf("servers = %d", len(node.HPBDServers))
	}
	if got := node.HPBD.Sectors() * 512; got != 8<<20 {
		t.Errorf("device bytes = %d, want %d", got, 8<<20)
	}
	env.Close()
}

func TestSwapKindOrderingUnderPressure(t *testing.T) {
	// The paper's central ordering: hpbd faster than both NBDs, NBDs
	// faster than disk, when overcommitted.
	const mem = 2 << 20
	const pages = 1024
	times := map[SwapKind]sim.Duration{}
	for _, k := range []SwapKind{SwapHPBD, SwapNBDGigE, SwapNBDIPoIB, SwapDisk} {
		times[k] = fill(t, Config{MemBytes: mem, Swap: k, SwapBytes: 16 << 20}, pages)
	}
	if !(times[SwapHPBD] < times[SwapNBDIPoIB] &&
		times[SwapNBDIPoIB] < times[SwapNBDGigE] &&
		times[SwapNBDGigE] < times[SwapDisk]) {
		t.Errorf("ordering violated: %v", times)
	}
}

func TestStatsAccessible(t *testing.T) {
	env := sim.NewEnv()
	node, err := Build(env, Config{MemBytes: 1 << 20, Swap: SwapDisk, SwapBytes: 4 << 20, LogRequests: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	as := node.VM.NewAddressSpace("w", 512)
	env.Go("w", func(p *sim.Proc) {
		node.Ready.Wait(p)
		for i := 0; i < 512; i++ {
			as.Touch(p, i, true)
		}
	})
	env.Run()
	env.Close()
	if node.Queue.Stats().RequestsDispatched == 0 {
		t.Error("no requests dispatched")
	}
	if len(node.Queue.Stats().Log) == 0 {
		t.Error("request log empty despite LogRequests")
	}
	if node.VM.Stats().SwapOuts == 0 {
		t.Error("no swap-outs recorded")
	}
}

func TestInvalidConfigs(t *testing.T) {
	env := sim.NewEnv()
	if _, err := Build(env, Config{MemBytes: 1 << 20, Swap: SwapHPBD, SwapBytes: 100, Servers: 3}); err == nil {
		t.Error("tiny swap area across 3 servers should fail")
	}
	if _, err := Build(env, Config{MemBytes: 1 << 20, Swap: SwapKind(99)}); err == nil {
		t.Error("unknown kind should fail")
	}
	env.Close()
}

func TestTwoWorkloadsShareNode(t *testing.T) {
	env := sim.NewEnv()
	node, err := Build(env, Config{MemBytes: 2 << 20, Swap: SwapHPBD, SwapBytes: 16 << 20, Servers: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	done := 0
	for k := 0; k < 2; k++ {
		as := node.VM.NewAddressSpace("w", 512)
		env.Go("w", func(p *sim.Proc) {
			node.Ready.Wait(p)
			for i := 0; i < 512; i++ {
				if err := as.Touch(p, i, true); err != nil {
					t.Errorf("Touch: %v", err)
					return
				}
				p.Sleep(5 * sim.Microsecond)
			}
			done++
		})
	}
	env.Run()
	env.Close()
	if done != 2 {
		t.Errorf("done = %d, want 2", done)
	}
	_ = vm.PageSize
}
