package cluster

import (
	"testing"

	"hpbd/internal/sim"
)

// TestGrowFleetUnderSwapPressure grows an elastic node mid-workload:
// the VM keeps swapping while GrowFleet attaches a server and migrates,
// and every page must read back its written value afterwards.
func TestGrowFleetUnderSwapPressure(t *testing.T) {
	env := sim.NewEnv()
	node, err := Build(env, Config{
		MemBytes: 1 << 20, Swap: SwapHPBD, SwapBytes: 4 << 20,
		Servers: 2,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const pages = 768 // 3 MB over 1 MB of RAM: most pages live in swap
	as := node.VM.NewAddressSpace("w", pages)
	env.Go("w", func(p *sim.Proc) {
		node.Ready.Wait(p)
		for i := 0; i < pages; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Errorf("Touch %d: %v", i, err)
				return
			}
		}
		added, gerr := node.GrowFleet(p, 8<<20)
		if gerr != nil {
			t.Errorf("GrowFleet: %v", gerr)
			return
		}
		if len(added) != 1 || added[0].Name() != "mem2" {
			t.Errorf("added = %v, want one server mem2", added)
		}
		if len(node.HPBDServers) != 3 {
			t.Errorf("fleet size = %d, want 3", len(node.HPBDServers))
		}
		// Swap traffic after the grow lands on the rebalanced layout;
		// touching every page faults the swapped ones back in through it.
		for i := 0; i < pages; i++ {
			if err := as.Touch(p, i, false); err != nil {
				t.Errorf("read-back Touch %d: %v", i, err)
				return
			}
		}
		if dir := node.HPBD.Directory(); dir == nil || dir.SectorsOn(2) == 0 {
			t.Error("grow moved no sectors onto the new server")
		}
		if err := node.Decommission(p, "mem0"); err != nil {
			t.Errorf("Decommission: %v", err)
			return
		}
		for i := 0; i < pages; i++ {
			if err := as.Touch(p, i, false); err != nil {
				t.Errorf("post-decommission Touch %d: %v", i, err)
				return
			}
		}
	})
	env.Run()
	env.Close()
	if node.HPBD.Failed() {
		t.Error("device failed during membership changes")
	}
}

// TestGrowFleetMirroredAddsBothSides keeps a mirrored node symmetric: one
// GrowFleet call adds a server per replica and both devices rebalance.
func TestGrowFleetMirroredAddsBothSides(t *testing.T) {
	env := sim.NewEnv()
	node, err := Build(env, Config{
		MemBytes: 1 << 20, Swap: SwapHPBD, SwapBytes: 2 << 20,
		Servers: 1, Mirror: true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const pages = 512
	as := node.VM.NewAddressSpace("w", pages)
	env.Go("w", func(p *sim.Proc) {
		node.Ready.Wait(p)
		for i := 0; i < pages; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Errorf("Touch %d: %v", i, err)
				return
			}
		}
		added, gerr := node.GrowFleet(p, 4<<20)
		if gerr != nil {
			t.Errorf("GrowFleet: %v", gerr)
			return
		}
		if len(added) != 2 {
			t.Fatalf("mirrored grow added %d servers, want 2 (one per side)", len(added))
		}
		for _, dev := range node.devices() {
			dir := dev.Directory()
			if dir == nil || len(dir.PlanRebalance()) != 0 {
				t.Errorf("%v: replica not rebalanced after mirrored grow", dev)
			}
		}
		for i := 0; i < pages; i++ {
			if err := as.Touch(p, i, false); err != nil {
				t.Errorf("read-back Touch %d: %v", i, err)
				return
			}
		}
	})
	env.Run()
	env.Close()
	if len(node.HPBDServers) != 4 {
		t.Errorf("fleet size = %d, want 4", len(node.HPBDServers))
	}
}
