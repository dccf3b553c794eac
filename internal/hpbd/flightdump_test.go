package hpbd

import (
	"bytes"
	"strings"
	"testing"

	"hpbd/internal/sim"
)

// TestFlightDumpOnMigrationAbort: a migration abort is a recovery event,
// so it must leave the flight recorder's last-N-requests table in the
// log exactly like a timeout or a lost link does. Crash the destination
// mid-copy and check the dump landed with the abort reason.
func TestFlightDumpOnMigrationAbort(t *testing.T) {
	const area = 1 << 20
	const blocks, blockBytes = 32, 64 * 1024
	ccfg := recoveryConfig()
	ccfg.MigrationMBps = 50 // ~16 ms per planned move: the crash lands mid-copy
	cb := newBed(t, bedOpts{servers: 2, area: area, client: ccfg, shared: true})
	var dumped bytes.Buffer
	cb.dev.Lifecycle().Flight().SetDumpWriter(&dumped)

	growing := sim.NewEvent(cb.env)
	sc := DefaultServerConfig(8 << 20)
	sc.Telemetry = cb.reg
	srv := NewServer(cb.fabric, "mem2", sc)
	cb.env.Go("killer", func(p *sim.Proc) {
		growing.Wait(p)
		p.Sleep(1 * sim.Millisecond)
		srv.Crash()
	})
	cb.run(func(p *sim.Proc) {
		if err := cb.writeBlocks(p, blocks, blockBytes, 3); err != nil {
			t.Fatalf("write pass: %v", err)
		}
		growing.Trigger()
		if err := cb.dev.AddServerLive(p, srv, 8<<20); err == nil {
			t.Fatal("AddServerLive succeeded with the new server crashed mid-copy")
		}
	})
	if got := cb.reg.Counter("migration.aborted").Value(); got == 0 {
		t.Fatal("migration.aborted not incremented; the abort never happened")
	}
	if cb.dev.Lifecycle().Flight().Dumps() == 0 {
		t.Error("migration abort produced no flight-recorder dump")
	}
	if !strings.Contains(dumped.String(), "migration aborted") {
		t.Errorf("dump reason missing the abort:\n%s", dumped.String())
	}
}

// TestFlightDumpOnWatchdogCancel: every request the watchdog flags as
// overdue dumps the flight recorder once, so a wedged server leaves the
// recent request history in the log before recovery kicks in.
func TestFlightDumpOnWatchdogCancel(t *testing.T) {
	ccfg := recoveryConfig()
	cb := newBed(t, bedOpts{client: ccfg, shared: true, fallback: true, faults: "hang@100us+20ms=mem0"})
	var dumped bytes.Buffer
	cb.dev.Lifecycle().Flight().SetDumpWriter(&dumped)
	const blocks = 8
	cb.run(func(p *sim.Proc) {
		if err := cb.writeBlocks(p, blocks, 4096, 7); err != nil {
			t.Errorf("writes under hang: %v", err)
			return
		}
		cb.verifyBlocks(t, p, blocks, 4096, 7)
	})
	if got := cb.reg.Counter("hpbd.timeout_cancels").Value(); got == 0 {
		t.Fatal("watchdog cancelled nothing; the hang went unnoticed")
	}
	if cb.dev.Lifecycle().Flight().Dumps() == 0 {
		t.Error("watchdog cancel produced no flight-recorder dump")
	}
	if !strings.Contains(dumped.String(), "request timeout") {
		t.Errorf("dump reason missing the timeout:\n%s", dumped.String())
	}
}
