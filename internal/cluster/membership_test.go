package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
	"hpbd/internal/vm"
)

// touchAll touches every page of as in order.
func touchAll(p *sim.Proc, as *vm.AddressSpace, pages int, write bool) error {
	for i := 0; i < pages; i++ {
		if err := as.Touch(p, i, write); err != nil {
			return fmt.Errorf("Touch %d: %w", i, err)
		}
	}
	return nil
}

// TestGrowFleetUnderSwapPressure grows an elastic node mid-workload:
// the VM keeps swapping while the grow attaches a server and migrates,
// and every page must read back its written value afterwards.
func TestGrowFleetUnderSwapPressure(t *testing.T) {
	const pages = 768 // 3 MB over 1 MB of RAM: most pages live in swap
	node, _, err := Run(Config{
		MemBytes: 1 << 20, Swap: SwapHPBD, SwapBytes: 4 << 20,
		Servers: 2,
	}, func(node *Node) []Proc {
		as := node.VM.NewAddressSpace("w", pages)
		return []Proc{{Name: "w", Run: func(p *sim.Proc) error {
			if err := touchAll(p, as, pages, true); err != nil {
				return err
			}
			if err := node.Play(p, []MemberOp{{Kind: Grow, Area: 8 << 20}}); err != nil {
				return err
			}
			if len(node.HPBDServers) != 3 || node.HPBDServers[2].Name() != "mem2" {
				t.Errorf("fleet = %v, want a third server mem2", node.HPBDServers)
			}
			// Swap traffic after the grow lands on the rebalanced layout;
			// touching every page faults the swapped ones back in through it.
			if err := touchAll(p, as, pages, false); err != nil {
				return err
			}
			if dir := node.HPBD.Directory(); dir == nil || dir.SectorsOn(2) == 0 {
				t.Error("grow moved no sectors onto the new server")
			}
			if err := node.Play(p, []MemberOp{{Kind: Decommission, Server: "mem0"}}); err != nil {
				return err
			}
			return touchAll(p, as, pages, false)
		}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if node.HPBD.Failed() {
		t.Error("device failed during membership changes")
	}
}

// TestGrowFleetMirroredAddsBothSides keeps a mirrored node symmetric: one
// grow adds a server per replica and both devices rebalance.
func TestGrowFleetMirroredAddsBothSides(t *testing.T) {
	const pages = 512
	node, _, err := Run(Config{
		MemBytes: 1 << 20, Swap: SwapHPBD, SwapBytes: 2 << 20,
		Servers: 1, Mirror: true,
	}, func(node *Node) []Proc {
		as := node.VM.NewAddressSpace("w", pages)
		return []Proc{{Name: "w", Run: func(p *sim.Proc) error {
			if err := touchAll(p, as, pages, true); err != nil {
				return err
			}
			if err := node.Play(p, []MemberOp{{Kind: Grow, Area: 4 << 20}}); err != nil {
				return err
			}
			for _, dev := range node.devices() {
				dir := dev.Directory()
				if dir == nil || len(dir.PlanRebalance()) != 0 {
					t.Errorf("%v: replica not rebalanced after mirrored grow", dev)
				}
			}
			return touchAll(p, as, pages, false)
		}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(node.HPBDServers) != 4 {
		t.Errorf("fleet size = %d, want 4 (one new server per side)", len(node.HPBDServers))
	}
}

// TestMembershipScheduleKeepsVirtualTime plays one resize — grow at 2 ms,
// then retire a founder — under swap pressure twice: from a hand-written
// process calling GrowFleet and Decommission, and as Config.Membership.
// The data form must not move virtual time: every recorded op starts and
// ends exactly when the hand process saw it start and end.
func TestMembershipScheduleKeepsVirtualTime(t *testing.T) {
	const pages, at, area = 768, 2 * sim.Millisecond, 8 << 20
	cfg := Config{MemBytes: 1 << 20, Swap: SwapHPBD, SwapBytes: 4 << 20, Servers: 2}
	workload := func(node *Node) Proc {
		as := node.VM.NewAddressSpace("w", pages)
		return Proc{Name: "w", Run: func(p *sim.Proc) error { return touchAll(p, as, pages, true) }}
	}
	var hand []sim.Time
	_, _, err := Run(cfg, func(node *Node) []Proc {
		return []Proc{workload(node), {Name: "membership", Run: func(p *sim.Proc) error {
			p.Sleep(at)
			hand = append(hand, p.Now())
			if _, err := node.GrowFleet(p, area); err != nil {
				return err
			}
			hand = append(hand, p.Now(), p.Now())
			err := node.Decommission(p, "mem0")
			hand = append(hand, p.Now())
			return err
		}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Membership = []MemberOp{
		{At: at, Kind: Grow, Area: area},
		{At: at, Kind: Decommission, Server: "mem0"},
	}
	node, _, err := Run(cfg, func(node *Node) []Proc { return []Proc{workload(node)} })
	if err != nil {
		t.Fatal(err)
	}
	if len(node.Ops) != 2 {
		t.Fatalf("recorded %d ops, want 2", len(node.Ops))
	}
	for i, rec := range node.Ops {
		if rec.Start != hand[2*i] || rec.End != hand[2*i+1] || rec.End <= rec.Start {
			t.Errorf("op %d ran [%v, %v], the hand process [%v, %v]", i, rec.Start, rec.End, hand[2*i], hand[2*i+1])
		}
	}
}

// TestGrowKeepsTenancy pins the one server constructor: on a tenancy node
// a server spawned by a grow enforces the founders' QoS spec and reports
// into the node's registry, through a drain of a founder onto it. The
// quota is sized to admit the migration: a single move larger than the
// destination's quota headroom still aborts with ErrMigration (its pages
// are reserved, not committed, so reclaim has nothing of it to demote) —
// that is quota × migration, ROADMAP item 3, not this constructor.
func TestGrowKeepsTenancy(t *testing.T) {
	spec := tenantSpec(t, "pool=16,a:w1:q3M,b:w2")
	const chunk, total = 64 << 10, 3 << 20
	node, _, err := Run(Config{
		MemBytes: 1 << 20, Swap: SwapHPBD, SwapBytes: 4 << 20, Servers: 2,
		Tenancy: spec, FallbackDisk: true,
	}, func(n *Node) []Proc {
		return []Proc{{Name: "rw", Run: func(p *sim.Proc) error {
			io := func(write bool, off int64, buf []byte) error {
				r, err := n.Queue.Submit(write, off/blockdev.SectorSize, buf)
				if err != nil {
					return err
				}
				n.Queue.Unplug()
				return r.Wait(p)
			}
			for off := int64(0); off < total; off += chunk {
				if err := io(true, off, chaosPattern(chunk, byte(off/chunk))); err != nil {
					return err
				}
			}
			if err := n.Play(p, []MemberOp{{Kind: Grow, Area: 4 << 20}, {Kind: Drain, Server: "mem0"}}); err != nil {
				return err
			}
			buf := make([]byte, chunk)
			for off := int64(0); off < total; off += chunk {
				if err := io(false, off, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, chaosPattern(chunk, byte(off/chunk))) {
					t.Errorf("chunk at %d read back different bytes after the drain", off)
				}
			}
			return nil
		}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range node.HPBDServers {
		if got := len(srv.TenantStats()); got != len(spec.Tenants) {
			t.Errorf("%s enforces %d tenants, want %d", srv.Name(), got, len(spec.Tenants))
		}
		if err := srv.TenancyCheck(); err != nil {
			t.Errorf("%s: %v", srv.Name(), err)
		}
	}
	if node.Tel.Counter("mem2.writes").Value() == 0 {
		t.Error("the grown server reports nothing into the node registry")
	}
}
