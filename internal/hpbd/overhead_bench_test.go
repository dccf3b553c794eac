package hpbd

import (
	"runtime"
	"testing"

	"hpbd/internal/sim"
)

// TestRequestPathAllocBudget pins the allocation cost of one sequential 4K
// write round trip through blockdev.Queue, telemetry attached and tracer
// off. The budget is the simulator kernel's doing (value event heap, ring
// queues, by-value events, no span arguments without a tracer); a change
// that re-introduces a per-event or per-wait allocation fails here.
func TestRequestPathAllocBudget(t *testing.T) {
	const warmup, measured, budget = 500, 2000, 28
	tb := newBed(t, bedOpts{shared: true})
	data := make([]byte, 4096)
	var mallocs uint64
	tb.run(func(p *sim.Proc) {
		var before, after runtime.MemStats
		for i := 0; i < warmup+measured; i++ {
			if i == warmup {
				runtime.ReadMemStats(&before)
			}
			if err := tb.do(p, true, 0, data); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if perOp := float64(mallocs) / measured; perOp > budget {
		t.Errorf("4K write round trip: %.2f allocs/op, budget %d", perOp, budget)
	} else {
		t.Logf("4K write round trip: %.2f allocs/op (budget %d)", perOp, budget)
	}
}
