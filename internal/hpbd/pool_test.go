package hpbd

import (
	"sort"
	"testing"
	"testing/quick"

	"hpbd/internal/sim"
)

func TestPoolFirstFit(t *testing.T) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, 1024)
	a, err := bp.TryAlloc(256)
	if err != nil || a != 0 {
		t.Fatalf("first alloc at %d err %v, want 0", a, err)
	}
	b, _ := bp.TryAlloc(256)
	if b != 256 {
		t.Fatalf("second alloc at %d, want 256", b)
	}
	bp.Free(a)
	// First-fit reuses the lowest hole.
	c, _ := bp.TryAlloc(128)
	if c != 0 {
		t.Fatalf("first-fit alloc at %d, want 0", c)
	}
	env.Close()
}

func TestPoolMergeOnFree(t *testing.T) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, 1024)
	offs := make([]int, 4)
	for i := range offs {
		offs[i], _ = bp.TryAlloc(256)
	}
	if _, err := bp.TryAlloc(1); err != ErrPoolExhausted {
		t.Fatalf("pool should be exhausted, got %v", err)
	}
	// Free out of order; neighbours must merge back to one extent.
	bp.Free(offs[1])
	bp.Free(offs[3])
	bp.Free(offs[0])
	bp.Free(offs[2])
	if bp.Fragments() != 1 || bp.LargestFree() != 1024 {
		t.Errorf("fragments=%d largest=%d, want 1/1024", bp.Fragments(), bp.LargestFree())
	}
	env.Close()
}

func TestPoolAllocWaitsAndWakes(t *testing.T) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, 512)
	var got int
	var gotAt sim.Time
	env.Go("holder", func(p *sim.Proc) {
		off, _ := bp.Alloc(p, 512)
		p.Sleep(100 * sim.Microsecond)
		bp.Free(off)
	})
	env.Go("waiter", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		off, err := bp.Alloc(p, 256)
		if err != nil {
			t.Errorf("Alloc: %v", err)
		}
		got = off
		gotAt = p.Now()
	})
	env.Run()
	env.Close()
	if gotAt != sim.Time(100*sim.Microsecond) {
		t.Errorf("waiter satisfied at %v, want 100us", gotAt)
	}
	if got != 0 {
		t.Errorf("waiter got offset %d, want 0", got)
	}
	if bp.AllocWaits != 1 {
		t.Errorf("AllocWaits = %d, want 1", bp.AllocWaits)
	}
}

func TestPoolOversizeRejected(t *testing.T) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, 128)
	env.Go("t", func(p *sim.Proc) {
		if _, err := bp.Alloc(p, 256); err == nil {
			t.Error("alloc larger than pool must fail, not block forever")
		}
	})
	env.Run()
	env.Close()
	if _, err := bp.TryAlloc(0); err == nil {
		t.Error("zero-size alloc accepted")
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, 128)
	off, _ := bp.TryAlloc(64)
	bp.Free(off)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	bp.Free(off)
}

// poolHoles returns the free holes of a size-byte pool whose live
// allocations are live (off -> len), in address order: the brute-force
// oracle TestQuickPoolInvariants checks the allocator against.
func poolHoles(live map[int]int, size int) []extent {
	offs := make([]int, 0, len(live))
	for off := range live {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	var holes []extent
	end := 0
	for _, off := range offs {
		if off > end {
			holes = append(holes, extent{end, off - end})
		}
		end = off + live[off]
	}
	if end < size {
		holes = append(holes, extent{end, size - end})
	}
	return holes
}

// Property: under any interleaving of allocs and frees, allocations never
// overlap, stay in bounds, and the free/used byte accounting is exact.
// Against the oracle: every successful TryAlloc(n) returns the lowest
// offset with n free bytes, every ErrPoolExhausted means no such hole
// exists, and LargestFree equals the largest hole.
func TestQuickPoolInvariants(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
	}
	f := func(ops []op) bool {
		env := sim.NewEnv()
		const size = 1 << 16
		bp := NewBufferPool(env, size)
		live := map[int]int{} // off -> len
		var order []int
		for _, o := range ops {
			if o.Alloc || len(order) == 0 {
				n := int(o.Size)%4096 + 1
				want := -1 // lowest offset with n free bytes
				for _, h := range poolHoles(live, size) {
					if h.len >= n {
						want = h.off
						break
					}
				}
				off, err := bp.TryAlloc(n)
				if err != nil {
					if err != ErrPoolExhausted || want >= 0 {
						return false
					}
					continue
				}
				if off != want {
					return false
				}
				// Bounds and overlap checks.
				if off < 0 || off+n > size {
					return false
				}
				for lo, ln := range live {
					if off < lo+ln && lo < off+n {
						return false
					}
				}
				live[off] = n
				order = append(order, off)
			} else {
				i := int(o.Size) % len(order)
				off := order[i]
				order = append(order[:i], order[i+1:]...)
				bp.Free(off)
				delete(live, off)
			}
			largest := 0
			for _, h := range poolHoles(live, size) {
				if h.len > largest {
					largest = h.len
				}
			}
			if bp.LargestFree() != largest {
				return false
			}
		}
		used := 0
		for _, n := range live {
			used += n
		}
		if used != bp.InUse() {
			return false
		}
		// Free everything: the pool must coalesce back to one extent.
		for _, off := range order {
			bp.Free(off)
		}
		env.Close()
		return bp.Fragments() == 1 && bp.LargestFree() == size && bp.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A checkerboard of isolated page-sized holes: first fit must reuse the
// lowest hole, not only the tail extent, and freeing the rest must
// coalesce the free list back to one extent.
func TestPoolCheckerboard(t *testing.T) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, 1<<20)

	// Allocate 64 page-sized blocks, free every other one. Each freed
	// block is isolated, so the free list grows one extent per free.
	const n, blocks = 4096, 64
	offs := make([]int, 0, blocks)
	for i := 0; i < blocks; i++ {
		off, err := bp.TryAlloc(n)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		offs = append(offs, off)
	}
	for i := 0; i < len(offs); i += 2 {
		bp.Free(offs[i])
	}
	if got := bp.Fragments(); got != blocks/2+1 {
		t.Fatalf("fragments = %d, want %d holes plus the tail", got, blocks/2)
	}

	off, err := bp.TryAlloc(n)
	if err != nil {
		t.Fatalf("alloc into a hole: %v", err)
	}
	if off != offs[0] {
		t.Errorf("alloc at %d, want lowest hole %d", off, offs[0])
	}
	bp.Free(off)

	for i := 1; i < len(offs); i += 2 {
		bp.Free(offs[i])
	}
	if bp.Fragments() != 1 || bp.LargestFree() != 1<<20 || bp.InUse() != 0 {
		t.Errorf("after drain: fragments=%d largest=%d inuse=%d",
			bp.Fragments(), bp.LargestFree(), bp.InUse())
	}
	env.Close()
}

// The fragmentation scenario the paper's merge algorithm targets: after a
// churn of mixed-size allocations, a full-size request must still succeed
// once everything is freed, and mid-churn the largest hole must satisfy a
// page cluster.
func TestPoolFragmentationRecovery(t *testing.T) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, 1<<20)
	rnd := env.Rand
	var live []int
	for i := 0; i < 2000; i++ {
		if rnd.Intn(2) == 0 || len(live) == 0 {
			n := (rnd.Intn(32) + 1) * 4096
			if off, err := bp.TryAlloc(n); err == nil {
				live = append(live, off)
			}
		} else {
			i := rnd.Intn(len(live))
			bp.Free(live[i])
			live = append(live[:i], live[i+1:]...)
		}
	}
	for _, off := range live {
		bp.Free(off)
	}
	if bp.Fragments() != 1 || bp.LargestFree() != 1<<20 {
		t.Errorf("after churn: fragments=%d largest=%d", bp.Fragments(), bp.LargestFree())
	}
	env.Close()
}
