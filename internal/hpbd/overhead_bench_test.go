package hpbd

import (
	"runtime"
	"testing"

	"hpbd/internal/sim"
)

// heapPerRound runs round warmup+measured times on a one-server bed and
// returns the allocations and allocated bytes of one measured round.
func heapPerRound(t *testing.T, warmup, measured int, round func(tb *testbed, p *sim.Proc) error) (allocs, bytes float64) {
	t.Helper()
	tb := newBed(t, bedOpts{shared: true})
	tb.run(func(p *sim.Proc) {
		var before, after runtime.MemStats
		for i := 0; i < warmup+measured; i++ {
			if i == warmup {
				runtime.ReadMemStats(&before)
			}
			if err := round(tb, p); err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(measured)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(measured)
	})
	return allocs, bytes
}

// TestRequestPathAllocBudget pins the host cost of a round trip through
// blockdev.Queue, telemetry attached and tracer off. Allocations: one
// sequential 4K write — what is left is the caller's own *IO from
// Queue.Submit; a change that re-introduces a per-request record in the
// block layer, the driver or the server, or a per-event, per-wait or
// per-WR allocation, fails here. Bytes: a 128K write and a 128K read back allocate no
// payload-sized buffer anywhere between the I/O buffers and the server's
// store — the pool, the fabric's wire buffers and the server's staging
// are all set up once.
func TestRequestPathAllocBudget(t *testing.T) {
	const allocBudget, byteBudget = 2, 4 << 10 // measured 1.00
	small := make([]byte, 4<<10)
	allocs, _ := heapPerRound(t, 500, 2000, func(tb *testbed, p *sim.Proc) error {
		return tb.do(p, true, 0, small)
	})
	if allocs > allocBudget {
		t.Errorf("4K write round trip: %.2f allocs/op, budget %d", allocs, allocBudget)
	} else {
		t.Logf("4K write round trip: %.2f allocs/op (budget %d)", allocs, allocBudget)
	}

	large := make([]byte, 128<<10)
	_, bytes := heapPerRound(t, 100, 400, func(tb *testbed, p *sim.Proc) error {
		if err := tb.do(p, true, 0, large); err != nil {
			return err
		}
		return tb.do(p, false, 0, large)
	})
	if bytes > byteBudget {
		t.Errorf("128K write + read round trip: %.0f B/op, budget %d", bytes, byteBudget)
	} else {
		t.Logf("128K write + read round trip: %.0f B/op (budget %d)", bytes, byteBudget)
	}
}
