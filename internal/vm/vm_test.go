package vm

import (
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// fakeDriver is an instant (or fixed-delay) block driver for VM tests.
type fakeDriver struct {
	name    string
	sectors int64
	delay   sim.Duration
	reqs    []int // request sizes in bytes
	fail    bool
}

func (f *fakeDriver) Name() string   { return f.name }
func (f *fakeDriver) Sectors() int64 { return f.sectors }
func (f *fakeDriver) Submit(p *sim.Proc, r *blockdev.Request) {
	if f.delay > 0 {
		p.Sleep(f.delay)
	}
	f.reqs = append(f.reqs, r.Bytes())
	if f.fail {
		r.Complete(errTest)
		return
	}
	r.Complete(nil)
}

var errTest = blockdev.ErrOutOfRange // any sentinel will do

type rig struct {
	env  *sim.Env
	sys  *System
	dev  *fakeDriver
	swap *SwapDevice
}

// newRig builds a VM with memPages of RAM and swapPages of swap on an
// instant device.
func newRig(memPages, swapPages int, delay sim.Duration) *rig {
	env := sim.NewEnv()
	cfg := DefaultConfig(int64(memPages) * PageSize)
	d := &fakeDriver{name: "swap0", sectors: int64(swapPages) * SectorsPerPage, delay: delay}
	sys := NewSystem(env, cfg)
	q := blockdev.NewQueue(env, cfg.Host, d)
	sw := sys.AddSwap(q, 0)
	return &rig{env: env, sys: sys, dev: d, swap: sw}
}

func (r *rig) run(fn func(p *sim.Proc)) {
	r.env.Go("test", fn)
	r.env.Run()
	r.env.Close()
}

func TestDemandZeroWithinMemory(t *testing.T) {
	r := newRig(256, 1024, 0)
	as := r.sys.NewAddressSpace("a", 64)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Errorf("Touch(%d): %v", i, err)
			}
		}
	})
	st := r.sys.Stats()
	if st.DemandZero != 64 || st.SwapOuts != 0 || st.SwapIns != 0 {
		t.Errorf("stats = %+v, want 64 demand-zero and no swap traffic", st)
	}
	if as.ResidentPages() != 64 {
		t.Errorf("resident = %d, want 64", as.ResidentPages())
	}
}

func TestOvercommitTriggersClusteredSwapOut(t *testing.T) {
	r := newRig(256, 4096, 50*sim.Microsecond)
	as := r.sys.NewAddressSpace("a", 512) // 2x memory
	r.run(func(p *sim.Proc) {
		for i := 0; i < 512; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Fatalf("Touch(%d): %v", i, err)
			}
			p.Sleep(20 * sim.Microsecond) // fill pace
		}
	})
	st := r.sys.Stats()
	if st.SwapOuts == 0 {
		t.Fatal("no swap-outs under 2x overcommit")
	}
	// Sequential dirty stream + clustered slots => large merged requests.
	var maxReq int
	for _, sz := range r.dev.reqs {
		if sz > maxReq {
			maxReq = sz
		}
	}
	if maxReq < 64*1024 {
		t.Errorf("largest swap-out request = %d bytes; expected >= 64K from merging", maxReq)
	}
}

func TestRefaultSwapsIn(t *testing.T) {
	r := newRig(128, 4096, 20*sim.Microsecond)
	as := r.sys.NewAddressSpace("a", 256)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Fatalf("fill Touch(%d): %v", i, err)
			}
		}
		// Early pages must have been evicted; re-touch them.
		for i := 0; i < 64; i++ {
			if err := as.Touch(p, i, false); err != nil {
				t.Fatalf("refault Touch(%d): %v", i, err)
			}
			if !as.Resident(i) {
				t.Fatalf("page %d not resident after refault", i)
			}
		}
	})
	st := r.sys.Stats()
	if st.SwapIns == 0 {
		t.Error("no swap-ins recorded on refault")
	}
	if st.ReadAheadPages == 0 {
		t.Error("readahead brought in no extra pages")
	}
}

func TestWriteToCleanSwapCachePageFreesSlot(t *testing.T) {
	r := newRig(128, 4096, 0)
	as := r.sys.NewAddressSpace("a", 256)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			as.Touch(p, i, true)
		}
		// Refault page 0 read-only: it stays bound to its slot.
		as.Touch(p, 0, false)
		pg := as.Page(0)
		if pg.dev == nil {
			t.Fatal("clean swap-cache page lost its slot binding")
		}
		free0 := r.swap.FreeSlots()
		as.Touch(p, 0, true) // dirty it: slot must be freed
		if pg.dev != nil {
			t.Error("dirtied page still bound to a swap slot")
		}
		if r.swap.FreeSlots() != free0+1 {
			t.Errorf("free slots %d -> %d, want +1", free0, r.swap.FreeSlots())
		}
	})
}

func TestCleanReclaimAvoidsRewrite(t *testing.T) {
	r := newRig(128, 4096, 0)
	as := r.sys.NewAddressSpace("a", 512)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 512; i++ {
			as.Touch(p, i, true)
		}
		preOuts := r.sys.Stats().SwapOuts
		// Touch early pages read-only, repeatedly, cycling through more
		// than memory: the second pass evicts clean swap-cache pages.
		for round := 0; round < 2; round++ {
			for i := 0; i < 512; i++ {
				if err := as.Touch(p, i, false); err != nil {
					t.Fatalf("Touch: %v", err)
				}
			}
		}
		st := r.sys.Stats()
		if st.FreedClean == 0 {
			t.Error("no clean reclaims; swap cache not working")
		}
		if st.SwapOuts-preOuts > st.FreedClean {
			t.Errorf("rewrites (%d) exceed clean frees (%d); read-only pages being rewritten",
				st.SwapOuts-preOuts, st.FreedClean)
		}
	})
}

func TestOOMWhenSwapFull(t *testing.T) {
	r := newRig(64, 32, 0) // tiny swap
	as := r.sys.NewAddressSpace("a", 256)
	var sawErr error
	r.run(func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			if err := as.Touch(p, i, true); err != nil {
				sawErr = err
				return
			}
		}
	})
	if sawErr != ErrOutOfMemory {
		t.Errorf("err = %v, want ErrOutOfMemory", sawErr)
	}
}

// TestFailedSwapDeviceEndsInOOM pins the reclaim accounting on a swap
// device whose every write fails (a fail-stop HPBD client after a server
// crash): a failed write-back frees no frame, so reclaim must count it as
// no progress, the faulting process must get ErrOutOfMemory, and kswapd
// must park instead of laundering the same pages for ever.
func TestFailedSwapDeviceEndsInOOM(t *testing.T) {
	const memPages = 64
	r := newRig(memPages, 4096, 30*sim.Microsecond)
	r.dev.fail = true
	as := r.sys.NewAddressSpace("a", 4*memPages)
	var sawErr error
	r.env.Go("test", func(p *sim.Proc) {
		for i := 0; i < 4*memPages && sawErr == nil; i++ {
			sawErr = as.Touch(p, i, true)
		}
	})
	r.env.RunUntil(sim.Time(60 * sim.Second))
	idle := r.env.Idle()
	r.env.Close()
	if sawErr != ErrOutOfMemory {
		t.Errorf("err = %v, want ErrOutOfMemory", sawErr)
	}
	if !idle {
		t.Error("reclaim is still scheduling events 60 s in: kswapd is live-locked on the failed device")
	}
	// The OOM wait re-wakes kswapd 200 times and each wake launders at
	// most three batches; anything near the live-lock's rate is far above.
	if got, limit := r.sys.Stats().SwapOuts, uint64(700*memPages); uint64(got) > limit {
		t.Errorf("SwapOuts = %d, want <= %d (resident pages laundered over and over)", got, limit)
	}
}

func TestReleaseReturnsFramesAndSlots(t *testing.T) {
	r := newRig(128, 4096, 0)
	as := r.sys.NewAddressSpace("a", 256)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			as.Touch(p, i, true)
		}
		p.Sleep(10 * sim.Millisecond) // let write-backs drain
		as.Release()
		p.Sleep(10 * sim.Millisecond)
		if got := r.sys.FreePages(); got != r.sys.Config().PhysPages {
			t.Errorf("free pages after release = %d, want %d", got, r.sys.Config().PhysPages)
		}
		if r.swap.FreeSlots() != r.swap.Slots() {
			t.Errorf("slots leaked: %d free of %d", r.swap.FreeSlots(), r.swap.Slots())
		}
	})
}

func TestTouchOutOfRange(t *testing.T) {
	r := newRig(64, 64, 0)
	as := r.sys.NewAddressSpace("a", 16)
	r.run(func(p *sim.Proc) {
		if err := as.Touch(p, 16, false); err == nil {
			t.Error("out-of-range touch accepted")
		}
		if err := as.Touch(p, -1, false); err == nil {
			t.Error("negative touch accepted")
		}
	})
}

func TestConcurrentFaultersSingleRead(t *testing.T) {
	r := newRig(128, 4096, 100*sim.Microsecond)
	as := r.sys.NewAddressSpace("a", 256)
	r.env.Go("fill", func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			as.Touch(p, i, true)
		}
		// Two processes fault the same evicted page concurrently.
		preIns := r.sys.Stats().SwapIns
		done := sim.NewEvent(r.env)
		for k := 0; k < 2; k++ {
			r.env.Go("faulter", func(fp *sim.Proc) {
				if err := as.Touch(fp, 0, false); err != nil {
					t.Errorf("Touch: %v", err)
				}
				done.Trigger()
			})
		}
		done.Wait(p)
		if got := r.sys.Stats().SwapIns - preIns; got != 1 {
			t.Errorf("swap-ins for one page faulted twice = %d, want 1", got)
		}
	})
	r.env.Run()
	r.env.Close()
}

func TestTwoAddressSpacesShareMemory(t *testing.T) {
	r := newRig(256, 8192, 0)
	a := r.sys.NewAddressSpace("a", 200)
	b := r.sys.NewAddressSpace("b", 200)
	var doneA, doneB bool
	r.env.Go("a", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if err := a.Touch(p, i, true); err != nil {
				t.Errorf("a.Touch: %v", err)
				return
			}
			p.Sleep(10 * sim.Microsecond)
		}
		doneA = true
	})
	r.env.Go("b", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if err := b.Touch(p, i, true); err != nil {
				t.Errorf("b.Touch: %v", err)
				return
			}
			p.Sleep(10 * sim.Microsecond)
		}
		doneB = true
	})
	r.env.Run()
	r.env.Close()
	if !doneA || !doneB {
		t.Fatal("workloads did not finish")
	}
	if r.sys.Stats().SwapOuts == 0 {
		t.Error("combined footprint 400 pages in 256 frames produced no swap-outs")
	}
}

// Frame accounting invariant: free + resident + in-flight-writing frames
// equals the physical total after any workload, with no leaks.
func TestFrameAccountingInvariant(t *testing.T) {
	r := newRig(128, 4096, 30*sim.Microsecond)
	as := r.sys.NewAddressSpace("a", 300)
	r.run(func(p *sim.Proc) {
		rnd := r.env.Rand
		for k := 0; k < 3000; k++ {
			idx := rnd.Intn(300)
			if err := as.Touch(p, idx, rnd.Intn(2) == 0); err != nil {
				t.Fatalf("Touch: %v", err)
			}
		}
		p.Sleep(50 * sim.Millisecond) // drain write-backs
		inUse := 0
		for i := 0; i < as.NumPages(); i++ {
			switch as.Page(i).State() {
			case PageResident, PageWriting, PageReading:
				inUse++
			}
		}
		if got := r.sys.FreePages() + inUse; got != r.sys.Config().PhysPages {
			t.Errorf("frames: free %d + in-use %d = %d, want %d",
				r.sys.FreePages(), inUse, got, r.sys.Config().PhysPages)
		}
	})
}

// Slot accounting: every non-free slot is owned by a page that refers back
// to it.
func TestSlotOwnershipInvariant(t *testing.T) {
	r := newRig(128, 2048, 10*sim.Microsecond)
	as := r.sys.NewAddressSpace("a", 400)
	r.run(func(p *sim.Proc) {
		rnd := r.env.Rand
		for k := 0; k < 4000; k++ {
			if err := as.Touch(p, rnd.Intn(400), rnd.Intn(3) > 0); err != nil {
				t.Fatalf("Touch: %v", err)
			}
		}
		p.Sleep(50 * sim.Millisecond)
		used := 0
		for slot, inUse := range r.swap.used {
			if !inUse {
				if r.swap.owner[slot] != nil {
					t.Fatalf("free slot %d has an owner", slot)
				}
				continue
			}
			used++
			own := r.swap.owner[slot]
			if own == nil {
				t.Fatalf("used slot %d has no owner", slot)
			}
			if own.dev != r.swap || own.slot != slot {
				t.Fatalf("slot %d owner back-reference mismatch", slot)
			}
		}
		if used != r.swap.Slots()-r.swap.FreeSlots() {
			t.Errorf("used count %d != slots-free %d", used, r.swap.Slots()-r.swap.FreeSlots())
		}
	})
}

func TestMultipleSwapDevicesPriority(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig(128 * PageSize)
	sys := NewSystem(env, cfg)
	hi := &fakeDriver{name: "hi", sectors: 64 * SectorsPerPage}
	lo := &fakeDriver{name: "lo", sectors: 4096 * SectorsPerPage}
	swHi := sys.AddSwap(blockdev.NewQueue(env, cfg.Host, hi), 10)
	swLo := sys.AddSwap(blockdev.NewQueue(env, cfg.Host, lo), 1)
	as := sys.NewAddressSpace("a", 400)
	env.Go("fill", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Fatalf("Touch: %v", err)
			}
		}
	})
	env.Run()
	env.Close()
	if swHi.FreeSlots() != 0 {
		t.Errorf("high-priority device not filled first: %d slots free", swHi.FreeSlots())
	}
	if swLo.FreeSlots() == swLo.Slots() {
		t.Error("low-priority device never used after high filled")
	}
}
