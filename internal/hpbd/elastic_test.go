package hpbd

import (
	"bytes"
	"strings"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// addServer spawns a server on the bed's fabric, enforcing the founders'
// QoS spec, and live-attaches it.
func (cb *testbed) addServer(t *testing.T, p *sim.Proc, name string, areaBytes int64) *Server {
	t.Helper()
	sc := DefaultServerConfig(areaBytes)
	sc.Telemetry = cb.reg
	sc.Tenancy = cb.spec
	srv := NewServer(cb.fabric, name, sc)
	if err := cb.dev.AddServerLive(p, srv, areaBytes); err != nil {
		t.Fatalf("AddServerLive(%s): %v", name, err)
	}
	cb.servers = append(cb.servers, srv)
	return srv
}

// TestElasticGrowMigratesAndRoundTrips is the tentpole happy path: fill
// a 2-server device, live-add a third server, and require (a) the
// balance actually moved sectors onto it, (b) every byte written before
// the grow reads back intact afterwards, and (c) blocks rewritten while
// the migration was in flight read back as their last written value
// (write-forwarding).
func TestElasticGrowMigratesAndRoundTrips(t *testing.T) {
	const area = 2 << 20
	const blocks, blockBytes = 32, 128 * 1024 // covers the 4 MB device exactly
	ccfg := DefaultClientConfig()
	ccfg.MigrationMBps = 400 // stretch the copy so the writer below overlaps it
	cb := newBed(t, bedOpts{servers: 2, area: area, client: ccfg, shared: true})

	done := sim.NewEvent(cb.env)
	idle := sim.NewEvent(cb.env)
	var lastSeed byte
	// A foreground writer hammering block 0 while the migration runs:
	// its final value must survive the cutover.
	cb.env.Go("rewriter", func(p *sim.Proc) {
		defer idle.Trigger()
		for i := 0; i < 40; i++ {
			seed := byte(100 + i)
			if err := cb.do(p, true, 0, pattern(blockBytes, seed)); err != nil {
				t.Errorf("rewrite %d: %v", i, err)
				return
			}
			lastSeed = seed
			if done.Triggered() {
				return
			}
			p.Sleep(20 * sim.Microsecond)
		}
	})
	cb.run(func(p *sim.Proc) {
		if err := cb.writeBlocks(p, blocks, blockBytes, 3); err != nil {
			t.Fatalf("write pass: %v", err)
		}
		dir := cb.dev.Directory()
		if dir == nil || dir.Epoch() != 0 {
			t.Fatal("a static fleet must be the directory at epoch 0")
		}
		cb.addServer(t, p, "mem2", 8<<20)
		done.Trigger()
		idle.Wait(p) // join the rewriter before reading its block
		if dir.Epoch() < 2 {
			t.Errorf("epoch = %d after add+rebalance, want >= 2", dir.Epoch())
		}
		if n := dir.SectorsOn(2); n == 0 {
			t.Error("rebalance moved nothing onto the new server")
		}
		if len(dir.PlanRebalance()) != 0 {
			t.Error("directory still unbalanced after AddServerLive returned")
		}
		// Blocks 1.. kept their original pattern; block 0 has the
		// rewriter's last value.
		for i := 1; i < blocks; i++ {
			buf := make([]byte, blockBytes)
			if err := cb.do(p, false, int64(i)*blockBytes/blockdev.SectorSize, buf); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(buf, pattern(blockBytes, 3+byte(i))) {
				t.Errorf("block %d corrupted by migration", i)
			}
		}
		buf := make([]byte, blockBytes)
		if err := cb.do(p, false, 0, buf); err != nil {
			t.Fatalf("read block 0: %v", err)
		}
		if !bytes.Equal(buf, pattern(blockBytes, lastSeed)) {
			t.Error("block 0 lost its last concurrent rewrite across the cutover")
		}
	})
	if got := cb.reg.Counter("migration.bytes").Value(); got == 0 {
		t.Error("migration.bytes = 0; no data migrated")
	}
	if got := cb.reg.Counter("migration.cutovers").Value(); got == 0 {
		t.Error("no cutovers recorded")
	}
	if cb.servers[2].Stats().Writes == 0 {
		t.Error("new server received no migrated data")
	}
	if cb.reg.Gauge("placement.epoch").Value() == 0 {
		t.Error("placement.epoch gauge never set")
	}
	assertExactPartition(t, cb.dev)
	assertRecordsHome(t, cb.dev)
}

// TestElasticDrainToDecommission retires a founding server: grow first
// (founders have no headroom), drain it, remove it, and require the
// data intact with the server link closed and ignored.
func TestElasticDrainToDecommission(t *testing.T) {
	const area = 1 << 20
	const blocks, blockBytes = 16, 128 * 1024
	cb := newBed(t, bedOpts{servers: 2, area: area, shared: true})
	cb.run(func(p *sim.Proc) {
		if err := cb.writeBlocks(p, blocks, blockBytes, 5); err != nil {
			t.Fatalf("write pass: %v", err)
		}
		cb.addServer(t, p, "mem2", 8<<20)
		if err := cb.dev.DrainServer(p, "mem0"); err != nil {
			t.Fatalf("DrainServer: %v", err)
		}
		dir := cb.dev.Directory()
		if n := dir.SectorsOn(0); n != 0 {
			t.Fatalf("mem0 still owns %d sectors after drain", n)
		}
		if err := cb.dev.RemoveServer(p, "mem0"); err != nil {
			t.Fatalf("RemoveServer: %v", err)
		}
		cb.verifyBlocks(t, p, blocks, blockBytes, 5)
		// Steady state after decommission: full rewrite + verify.
		if err := cb.writeBlocks(p, blocks, blockBytes, 9); err != nil {
			t.Fatalf("post-remove writes: %v", err)
		}
		cb.verifyBlocks(t, p, blocks, blockBytes, 9)
	})
	if !cb.dev.links[0].removed {
		t.Error("mem0 link not marked removed")
	}
	if cb.dev.Failed() {
		t.Error("decommissioning failed the device")
	}
	if w0 := cb.servers[0].Stats().Writes; w0 >= int64(blocks)*2 {
		t.Errorf("mem0 kept taking writes after decommission (%d)", w0)
	}
	assertExactPartition(t, cb.dev)
	assertRecordsHome(t, cb.dev)
}

// TestConnectAfterGrow connects a founder after a membership operation:
// its slice joins the device tail with the link list and the directory
// still in step, so the tail reads back and the next live add lands on
// the link the directory names.
func TestConnectAfterGrow(t *testing.T) {
	const area = 1 << 20
	const blocks, blockBytes = 24, 128 * 1024 // the 3 MB the device ends up with
	cb := newBed(t, bedOpts{servers: 2, area: area, shared: true})
	cb.run(func(p *sim.Proc) {
		cb.addServer(t, p, "mem2", 2*area)
		late := NewServer(cb.fabric, "mem3", DefaultServerConfig(area))
		if err := cb.dev.ConnectServer(late, area); err != nil {
			t.Errorf("ConnectServer after a grow: %v", err)
			return
		}
		if got, want := cb.dev.Sectors(), int64(3*area/blockdev.SectorSize); got != want {
			t.Errorf("device has %d sectors after the late connect, want %d", got, want)
			return
		}
		if err := cb.writeBlocks(p, blocks, blockBytes, 7); err != nil {
			t.Errorf("writes over the new tail: %v", err)
			return
		}
		if late.Stats().Writes == 0 {
			t.Error("the late founder took none of the tail's writes")
		}
		cb.addServer(t, p, "mem4", 2*area)
		cb.verifyBlocks(t, p, blocks, blockBytes, 7)
	})
	dir := cb.dev.Directory()
	if got := dir.NumServers(); got != len(cb.dev.links) {
		t.Errorf("directory has %d servers, the device %d links", got, len(cb.dev.links))
	}
	for i, si := range dir.Servers() {
		if name := cb.dev.links[i].srv.Name(); name != si.Name {
			t.Errorf("directory server %d is %s, link %d is %s", i, si.Name, i, name)
		}
	}
}

// TestDeterministicReplayMigration replays a full membership scenario —
// grow, concurrent traffic, drain, decommission — twice in fresh
// simulations and requires byte-identical telemetry and directory
// state: the seed-replay contract extended to migration.
func TestDeterministicReplayMigration(t *testing.T) {
	runOnce := func() (string, string) {
		ccfg := DefaultClientConfig()
		ccfg.MigrationMBps = 800
		cb := newBed(t, bedOpts{servers: 2, client: ccfg, shared: true})
		cb.run(func(p *sim.Proc) {
			if err := cb.writeBlocks(p, 16, 64*1024, 3); err != nil {
				t.Fatalf("writes: %v", err)
			}
			cb.addServer(t, p, "mem2", 6<<20)
			if err := cb.writeBlocks(p, 8, 64*1024, 31); err != nil {
				t.Fatalf("mid writes: %v", err)
			}
			if err := cb.dev.DrainServer(p, "mem1"); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if err := cb.dev.RemoveServer(p, "mem1"); err != nil {
				t.Fatalf("remove: %v", err)
			}
			cb.verifyBlocks(t, p, 8, 64*1024, 31)
		})
		var dump strings.Builder
		cb.dev.Directory().Dump(&dump)
		return cb.reg.Summary(), dump.String()
	}
	sum1, dir1 := runOnce()
	sum2, dir2 := runOnce()
	if sum1 != sum2 {
		t.Errorf("telemetry diverged across replays:\n--- run 1 ---\n%s--- run 2 ---\n%s", sum1, sum2)
	}
	if dir1 != dir2 {
		t.Errorf("directory diverged across replays:\n--- run 1 ---\n%s--- run 2 ---\n%s", dir1, dir2)
	}
	if !strings.Contains(dir1, "removed") {
		t.Errorf("scenario did not decommission a server:\n%s", dir1)
	}
}

// TestElasticGuards pins the API edges: membership fails cleanly on
// striped layouts and unknown servers.
func TestElasticGuards(t *testing.T) {
	striped := DefaultClientConfig()
	striped.StripeBytes = 64 * 1024
	cb2 := newBed(t, bedOpts{servers: 2, client: striped, shared: true})
	cb2.run(func(p *sim.Proc) {
		if err := cb2.writeBlocks(p, 16, 128*1024, 3); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(cb2.fabric, "memY", DefaultServerConfig(1<<20))
		if err := cb2.dev.AddServerLive(p, srv, 1<<20); err == nil {
			t.Error("AddServerLive under striping must fail")
		}
		if err := cb2.dev.DrainServer(p, "nope"); err == nil {
			t.Error("drain under striping must fail")
		}
		if err := cb2.dev.RemoveServer(p, "mem0"); err == nil ||
			!strings.Contains(err.Error(), "blocked layout") {
			t.Errorf("remove under striping = %v, want the blocked-layout refusal", err)
		}
		// A refused call must leave the striped map as it was.
		cb2.verifyBlocks(t, p, 16, 128*1024, 3)
	})

	cb3 := newBed(t, bedOpts{servers: 2, shared: true})
	cb3.run(func(p *sim.Proc) {
		if err := cb3.dev.DrainServer(p, "ghost"); err == nil ||
			!strings.Contains(err.Error(), "unknown server") {
			t.Errorf("drain of unknown server = %v", err)
		}
		if err := cb3.dev.RemoveServer(p, "mem0"); err == nil {
			t.Error("remove of an owning server must fail (drain first)")
		}
	})
}
