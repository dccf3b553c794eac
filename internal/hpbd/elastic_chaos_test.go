package hpbd

import (
	"errors"
	"testing"

	"hpbd/internal/sim"
)

// TestChaosCrashMidChunkCopy crashes the destination server while the
// rebalance copy stream is mid-flight. The move must abort with the
// range still on its source, every byte written before the grow must
// read back, and the directory must never have routed a sector to the
// dead newcomer.
func TestChaosCrashMidChunkCopy(t *testing.T) {
	const area = 1 << 20
	const blocks, blockBytes = 32, 64 * 1024 // fills the 2 MB device
	ccfg := recoveryConfig()
	ccfg.MigrationMBps = 50 // ~16 ms per planned move: the crash lands mid-copy
	cb := newBed(t, bedOpts{servers: 2, area: area, client: ccfg, shared: true})

	growing := sim.NewEvent(cb.env)
	sc := DefaultServerConfig(8 << 20)
	sc.Telemetry = cb.reg
	srv := NewServer(cb.fabric, "mem2", sc)
	cb.env.Go("killer", func(p *sim.Proc) {
		growing.Wait(p)
		p.Sleep(1 * sim.Millisecond) // well inside the first chunk stream
		srv.Crash()
	})
	cb.run(func(p *sim.Proc) {
		if err := cb.writeBlocks(p, blocks, blockBytes, 3); err != nil {
			t.Fatalf("write pass: %v", err)
		}
		growing.Trigger()
		err := cb.dev.AddServerLive(p, srv, 8<<20)
		if err == nil {
			t.Fatal("AddServerLive succeeded with the new server crashed mid-copy")
		}
		if !errors.Is(err, ErrMigration) {
			t.Errorf("AddServerLive error = %v, want ErrMigration", err)
		}
		dir := cb.dev.Directory()
		if dir == nil {
			t.Fatal("no directory after attempted grow")
		}
		if n := dir.SectorsOn(2); n != 0 {
			t.Errorf("%d sectors committed to the crashed newcomer", n)
		}
		// Zero loss: everything still lives on the founders.
		cb.verifyBlocks(t, p, blocks, blockBytes, 3)
		// Steady state survives the failed grow.
		if err := cb.writeBlocks(p, blocks, blockBytes, 21); err != nil {
			t.Fatalf("post-abort writes: %v", err)
		}
		cb.verifyBlocks(t, p, blocks, blockBytes, 21)
	})
	if got := cb.reg.Counter("migration.aborted").Value(); got == 0 {
		t.Error("migration.aborted not incremented")
	}
	if got := cb.reg.Counter("migration.cutovers").Value(); got != 0 {
		t.Errorf("%d cutovers recorded for an aborted grow", got)
	}
	if cb.dev.Failed() {
		t.Error("device failed: a dead newcomer must only cost its own link")
	}
	assertExactPartition(t, cb.dev)
	assertRecordsHome(t, cb.dev)
}

// TestChaosDrainDuringSenderrBurst fires a transient send-error burst
// into the client HCA while a drain's chunk copies are in flight. The
// migration transfers must retry on their live links (never degrade)
// and the drain must still complete with zero loss.
func TestChaosDrainDuringSenderrBurst(t *testing.T) {
	const area = 1 << 20
	const blocks, blockBytes = 32, 64 * 1024
	ccfg := recoveryConfig()
	ccfg.MigrationMBps = 25 // ~2.6 ms per 64 KB chunk: the drain spans the burst
	cb := newBed(t, bedOpts{servers: 2, area: area, client: ccfg, shared: true, faults: "senderr@80500usx2=hpbd0"})

	cb.run(func(p *sim.Proc) {
		if err := cb.writeBlocks(p, blocks, blockBytes, 3); err != nil {
			t.Fatalf("write pass: %v", err)
		}
		cb.addServer(t, p, "mem2", 8<<20)
		// Start the drain at exactly t=80ms so the 80.5ms burst lands in
		// its copy stream (the paced grow above finishes around 76ms).
		if now := sim.Duration(p.Now()); now < 80*sim.Millisecond {
			p.Sleep(80*sim.Millisecond - now)
		} else {
			t.Fatalf("setup overran the burst window: now=%v", p.Now())
		}
		if err := cb.dev.DrainServer(p, "mem0"); err != nil {
			t.Fatalf("drain under senderr burst: %v", err)
		}
		if n := cb.dev.Directory().SectorsOn(0); n != 0 {
			t.Errorf("mem0 still owns %d sectors", n)
		}
		if err := cb.dev.RemoveServer(p, "mem0"); err != nil {
			t.Fatalf("RemoveServer: %v", err)
		}
		cb.verifyBlocks(t, p, blocks, blockBytes, 3)
	})
	if inj := cb.reg.Counter("faultsim.injected").Value(); inj == 0 {
		t.Error("fault schedule never fired; the burst missed the run")
	}
	st := cb.dev.Stats()
	if st.Retries == 0 {
		t.Error("senderr burst caused no retries")
	}
	if st.LinkFailures != 0 || st.Fallbacks != 0 {
		t.Errorf("transient errors escalated during migration: links=%d fallbacks=%d",
			st.LinkFailures, st.Fallbacks)
	}
	if got := cb.reg.Counter("migration.aborted").Value(); got != 0 {
		t.Errorf("drain aborted %d times; transient errors must be retried", got)
	}
	assertExactPartition(t, cb.dev)
	assertRecordsHome(t, cb.dev)
}

// TestChaosDoubleMembershipChange runs two concurrent AddServerLive
// calls with foreground writes flowing throughout: the membership mutex
// must serialize them into two clean epochs with no interleaved state,
// and the last write to every block must win.
func TestChaosDoubleMembershipChange(t *testing.T) {
	const area = 1 << 20
	const blocks, blockBytes = 16, 64 * 1024
	ccfg := recoveryConfig()
	ccfg.MigrationMBps = 200
	cb := newBed(t, bedOpts{servers: 2, area: area, client: ccfg, shared: true})

	addDone := [2]*sim.Event{sim.NewEvent(cb.env), sim.NewEvent(cb.env)}
	for i := 0; i < 2; i++ {
		i := i
		cb.env.Go("adder", func(p *sim.Proc) {
			defer addDone[i].Trigger()
			cb.addServer(t, p, "mem"+string(rune('2'+i)), 4<<20)
		})
	}
	cb.run(func(p *sim.Proc) {
		seed := byte(3)
		if err := cb.writeBlocks(p, blocks, blockBytes, seed); err != nil {
			t.Fatalf("write pass: %v", err)
		}
		// Keep rewriting the whole device until both adds finish, so
		// writes interleave with both migrations and the cutovers between
		// them.
		for !addDone[0].Triggered() || !addDone[1].Triggered() {
			seed += 2
			if err := cb.writeBlocks(p, blocks, blockBytes, seed); err != nil {
				t.Fatalf("rewrite pass (seed %d): %v", seed, err)
			}
		}
		dir := cb.dev.Directory()
		if got := len(dir.Servers()); got != 4 {
			t.Fatalf("directory has %d servers, want 4", got)
		}
		if dir.SectorsOn(2) == 0 || dir.SectorsOn(3) == 0 {
			t.Errorf("rebalance skipped a newcomer: mem2=%d mem3=%d sectors",
				dir.SectorsOn(2), dir.SectorsOn(3))
		}
		if len(dir.PlanRebalance()) != 0 {
			t.Error("fleet unbalanced after both adds returned")
		}
		cb.verifyBlocks(t, p, blocks, blockBytes, seed)
	})
	if got := cb.reg.Counter("migration.aborted").Value(); got != 0 {
		t.Errorf("%d aborted moves in a fault-free double add", got)
	}
	if cb.reg.Counter("migration.cutovers").Value() < 2 {
		t.Error("expected at least one cutover per added server")
	}
	if epoch := cb.dev.Directory().Epoch(); epoch < 4 {
		t.Errorf("epoch = %d after two adds with moves, want >= 4", epoch)
	}
	assertExactPartition(t, cb.dev)
	assertRecordsHome(t, cb.dev)
}
