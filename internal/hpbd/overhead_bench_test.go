package hpbd

import (
	"runtime"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/health"
	"hpbd/internal/ib"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// benchRequestPath measures the real (host) cost of one simulated 4K
// write round trip. entries selects the lifecycle configuration: 0 is the
// always-on default (analyzer + flight ring), -1 the explicit opt-out.
// The gap between the two is the observability tax on the datapath; the
// acceptance gate keeps it within a few percent. withHealth additionally
// attaches the fleet health engine (sampler, SLO tracker and rule
// engine) the way cluster.Build wires it, so the gate also bounds the
// monitoring tax.
func benchRequestPath(b *testing.B, entries int, withHealth bool) {
	env := sim.NewEnv()
	f := ib.NewFabric(env, ib.DefaultConfig())
	ccfg := DefaultClientConfig()
	ccfg.FlightRecEntries = entries
	if withHealth {
		ccfg.Telemetry = telemetry.New(env)
	}
	dev := NewDevice(f, "hpbd0", ccfg)
	srv := NewServer(f, "mem0", DefaultServerConfig(1<<20))
	if err := dev.ConnectServer(srv, 1<<20); err != nil {
		b.Fatalf("ConnectServer: %v", err)
	}
	q := blockdev.NewQueue(env, netmodel.DefaultHost(), dev)
	if withHealth {
		m := health.NewMonitor(env, ccfg.Telemetry, health.Config{})
		q.SetActivityHook(m.Kick)
		m.Start()
	}
	data := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			w, err := q.Submit(true, 0, data)
			if err != nil {
				b.Errorf("Submit: %v", err)
				return
			}
			q.Unplug()
			if err := w.Wait(p); err != nil {
				b.Errorf("write: %v", err)
				return
			}
		}
	})
	env.Run()
	env.Close()
}

func BenchmarkRequestPathLifecycleOn(b *testing.B)  { benchRequestPath(b, 0, false) }
func BenchmarkRequestPathLifecycleOff(b *testing.B) { benchRequestPath(b, -1, false) }
func BenchmarkRequestPathHealthOn(b *testing.B)     { benchRequestPath(b, 0, true) }

// TestRequestPathAllocBudget pins the allocation cost of one sequential 4K
// write round trip through blockdev.Queue, telemetry attached and tracer
// off. The budget is the simulator kernel's doing (value event heap, ring
// queues, by-value events, no span arguments without a tracer); a change
// that re-introduces a per-event or per-wait allocation fails here.
func TestRequestPathAllocBudget(t *testing.T) {
	const warmup, measured, budget = 500, 2000, 28
	env := sim.NewEnv()
	defer env.Close()
	f := ib.NewFabric(env, ib.DefaultConfig())
	ccfg := DefaultClientConfig()
	ccfg.Telemetry = telemetry.New(env)
	scfg := DefaultServerConfig(1 << 20)
	scfg.Telemetry = ccfg.Telemetry
	dev := NewDevice(f, "hpbd0", ccfg)
	if err := dev.ConnectServer(NewServer(f, "mem0", scfg), 1<<20); err != nil {
		t.Fatalf("ConnectServer: %v", err)
	}
	q := blockdev.NewQueue(env, netmodel.DefaultHost(), dev)
	data := make([]byte, 4096)
	var mallocs uint64
	env.Go("budget", func(p *sim.Proc) {
		var before, after runtime.MemStats
		for i := 0; i < warmup+measured; i++ {
			if i == warmup {
				runtime.ReadMemStats(&before)
			}
			w, err := q.Submit(true, 0, data)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			q.Unplug()
			if err := w.Wait(p); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	env.Run()
	if perOp := float64(mallocs) / measured; perOp > budget {
		t.Errorf("4K write round trip: %.2f allocs/op, budget %d", perOp, budget)
	} else {
		t.Logf("4K write round trip: %.2f allocs/op (budget %d)", perOp, budget)
	}
}
