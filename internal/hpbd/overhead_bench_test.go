package hpbd

import (
	"runtime"
	"testing"

	"hpbd/internal/sim"
)

// heapPerRound runs round warmup+measured times on a bed built from o and
// returns the allocations and allocated bytes of one measured round.
func heapPerRound(t *testing.T, o bedOpts, warmup, measured int, round func(tb *testbed, p *sim.Proc) error) (allocs, bytes float64) {
	t.Helper()
	tb := newBed(t, o)
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
	allocs, _ := heapPerRound(t, bedOpts{shared: true}, 500, 2000, func(tb *testbed, p *sim.Proc) error {
		return tb.do(p, true, 0, small)
	})
	if allocs > allocBudget {
		t.Errorf("4K write round trip: %.2f allocs/op, budget %d", allocs, allocBudget)
	} else {
		t.Logf("4K write round trip: %.2f allocs/op (budget %d)", allocs, allocBudget)
	}

	large := make([]byte, 128<<10)
	_, bytes := heapPerRound(t, bedOpts{shared: true}, 100, 400, func(tb *testbed, p *sim.Proc) error {
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

// TestTenancyRequestPathAllocBudget holds the tenant-scheduled serve path
// to the paper path's cost. On a two-tenant bed a 4K and a 128K write +
// read back each allocate only the caller's two *IOs: the serve record,
// its staging buffer, the store proc and its reply buffer all exist
// before the first request, and nothing is spawned or registered per
// request.
func TestTenancyRequestPathAllocBudget(t *testing.T) {
	const allocBudget = 2
	for _, size := range []int{4 << 10, 128 << 10} {
		buf := make([]byte, size)
		allocs, _ := heapPerRound(t, bedOpts{shared: true, tenancy: "pool=4,a:w1,b:w1"}, 100, 400, func(tb *testbed, p *sim.Proc) error {
			if err := tb.do(p, true, 0, buf); err != nil {
				return err
			}
			return tb.do(p, false, 0, buf)
		})
		if allocs > allocBudget {
			t.Errorf("%dK write + read under tenancy: %.2f allocs/pair, budget %d", size>>10, allocs, allocBudget)
		} else {
			t.Logf("%dK write + read under tenancy: %.2f allocs/pair (budget %d)", size>>10, allocs, allocBudget)
		}
	}
}
