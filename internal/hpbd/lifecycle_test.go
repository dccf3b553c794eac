package hpbd

import (
	"bytes"
	"strings"
	"testing"

	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// TestLifecycleExactPartition round-trips real requests and checks the
// acceptance criterion directly: for every recorded request the eight
// stages sum to the end-to-end latency exactly, and the server-observed
// split (rdma vs. server-copy) is present because the stamp side channel
// crossed the process boundary.
func TestLifecycleExactPartition(t *testing.T) {
	tb := newBed(t, bedOpts{shared: true})
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, 0, pattern(16*1024, 5)); err != nil {
			t.Errorf("write: %v", err)
		}
		buf := make([]byte, 16*1024)
		if err := tb.do(p, false, 0, buf); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	lc := tb.dev.Lifecycle()
	if lc == nil {
		t.Fatal("lifecycle analyzer not enabled by default")
	}
	if lc.Count() < 2 {
		t.Fatalf("recorded %d requests, want >= 2", lc.Count())
	}
	for _, rec := range lc.Flight().Records() {
		var sum sim.Duration
		for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
			if rec.Stages[s] < 0 {
				t.Errorf("req %d: stage %v negative: %v", rec.ID, s, rec.Stages[s])
			}
			sum += rec.Stages[s]
		}
		if sum != rec.Total() {
			t.Errorf("req %d: stages sum to %v, end-to-end is %v (must partition exactly)",
				rec.ID, sum, rec.Total())
		}
		if rec.Server != "mem0" {
			t.Errorf("req %d: server %q, want mem0", rec.ID, rec.Server)
		}
		if rec.Flow == 0 {
			t.Errorf("req %d: no causal flow id", rec.ID)
		}
	}
	if lc.StageSum(telemetry.StageServerCopy) == 0 {
		t.Error("server-copy stage never attributed: the stamp side channel is broken")
	}
	if lc.StageSum(telemetry.StageRDMA) == 0 {
		t.Error("rdma stage never attributed")
	}
	if lc.StageSum(telemetry.StageSend) == 0 {
		t.Error("send stage never attributed")
	}
}

// TestFlightDumpOnTimeout injects a server slow enough that the armed
// watchdog flags the in-flight request and dumps the flight recorder.
func TestFlightDumpOnTimeout(t *testing.T) {
	var dump bytes.Buffer
	ccfg := DefaultClientConfig()
	ccfg.RequestTimeout = 200 * sim.Microsecond
	tb := newBed(t, bedOpts{client: ccfg, shared: true, server: func(sc *ServerConfig) {
		sc.StoreOpOverhead = 10 * sim.Millisecond
	}})
	tb.dev.Lifecycle().Flight().SetDumpWriter(&dump)
	var waitErr error
	tb.env.Go("test", func(p *sim.Proc) {
		w, err := tb.queue.Submit(true, 0, pattern(4096, 1))
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		tb.queue.Unplug()
		waitErr = w.Wait(p)
	})
	// The watchdog process sleeps forever, so bound the run instead of
	// draining the event queue.
	tb.env.RunUntil(sim.Time(50 * sim.Millisecond))
	tb.env.Close()
	if waitErr != nil {
		t.Fatalf("request should still complete after the timeout flag: %v", waitErr)
	}
	if got := tb.dev.Stats().Timeouts; got == 0 {
		t.Fatal("watchdog flagged no timeouts")
	}
	out := dump.String()
	if !strings.Contains(out, "flight recorder dump") {
		t.Fatalf("no flight-recorder dump emitted:\n%s", out)
	}
	if !strings.Contains(out, "request timeout") {
		t.Fatalf("dump reason does not mention the timeout:\n%s", out)
	}
	if !strings.Contains(out, "server=mem0") {
		t.Fatalf("dump reason does not name the serving host:\n%s", out)
	}
}
