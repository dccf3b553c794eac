package vm

import (
	"runtime"
	"testing"

	"hpbd/internal/sim"
)

func TestReadAheadUsefulnessCounted(t *testing.T) {
	r := newRig(128, 4096, 20*sim.Microsecond)
	as := r.sys.NewAddressSpace("a", 256)
	r.run(func(p *sim.Proc) {
		// Fill sequentially (evicts the early pages), then re-read
		// sequentially: readahead should prefetch pages that the next
		// faults use, and those hits must be counted.
		for i := 0; i < 256; i++ {
			as.Touch(p, i, true)
		}
		for i := 0; i < 128; i++ {
			if err := as.Touch(p, i, false); err != nil {
				t.Fatalf("Touch: %v", err)
			}
		}
	})
	st := r.sys.Stats()
	if st.ReadAheadPages == 0 {
		t.Fatal("no readahead happened")
	}
	if st.ReadAheadUseful == 0 {
		t.Error("sequential re-read made no readahead page useful")
	}
	if st.ReadAheadUseful > st.ReadAheadPages {
		t.Errorf("useful (%d) > issued (%d)", st.ReadAheadUseful, st.ReadAheadPages)
	}
	// Sequential re-read should make most readahead useful.
	if float64(st.ReadAheadUseful) < 0.5*float64(st.ReadAheadPages) {
		t.Errorf("readahead hit rate %d/%d < 50%% on a sequential scan",
			st.ReadAheadUseful, st.ReadAheadPages)
	}
}

func TestDirectReclaimCountsUnderPressure(t *testing.T) {
	r := newRig(256, 4096, 30*sim.Microsecond)
	as := r.sys.NewAddressSpace("a", 1024)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 1024; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Fatalf("Touch: %v", err)
			}
		}
	})
	if r.sys.Stats().DirectReclaims == 0 {
		t.Error("sustained overcommit did no direct reclaim (2.4 semantics)")
	}
}

func TestPageStateString(t *testing.T) {
	cases := map[PageState]string{
		PageNotPresent: "not-present",
		PageResident:   "resident",
		PageWriting:    "writing",
		PageSwappedOut: "swapped",
		PageReading:    "reading",
		PageState(99):  "?",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestSwapDeviceAccessors(t *testing.T) {
	r := newRig(64, 512, 0)
	if r.swap.Slots() != 512 {
		t.Errorf("Slots = %d", r.swap.Slots())
	}
	if r.swap.FreeSlots() != 512 {
		t.Errorf("FreeSlots = %d", r.swap.FreeSlots())
	}
	if r.sys.SwapFree() != 512 {
		t.Errorf("SwapFree = %d", r.sys.SwapFree())
	}
	if len(r.sys.SwapDevices()) != 1 {
		t.Errorf("SwapDevices = %d", len(r.sys.SwapDevices()))
	}
	r.env.Close()
}

func TestSlotClusteringSequential(t *testing.T) {
	// Sequential reclaim must produce sequential slots (the property that
	// makes request merging work).
	r := newRig(128, 4096, 0)
	as := r.sys.NewAddressSpace("a", 512)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 512; i++ {
			as.Touch(p, i, true)
		}
	})
	// Inspect the slots bound to the evicted early pages: runs of
	// consecutive pages should hold consecutive slots.
	runs, prevSlot, runLen, maxRun := 0, -2, 0, 0
	for i := 0; i < 512; i++ {
		pg := as.Page(i)
		if pg.dev == nil {
			continue
		}
		if pg.slot == prevSlot+1 {
			runLen++
		} else {
			runs++
			runLen = 1
		}
		if runLen > maxRun {
			maxRun = runLen
		}
		prevSlot = pg.slot
	}
	if maxRun < 16 {
		t.Errorf("longest consecutive slot run = %d, want >= 16 (clustered allocation)", maxRun)
	}
	_ = runs
}

// idleRecords counts the page-I/O records on d's free list.
func idleRecords(d *SwapDevice) (n int) {
	for rec := d.freeIOs; rec != nil; rec = rec.next {
		n++
	}
	return n
}

// A warmed fault/evict loop takes its page-I/O records and their buffers
// from the swap device's free list: what it still allocates per page I/O
// is far below one PageSize buffer.
func TestPageIOBuffersAreRecycled(t *testing.T) {
	r := newRig(128, 4096, 0)
	as := r.sys.NewAddressSpace("a", 512) // 4x memory: every touch below faults
	sweep := func(p *sim.Proc) {
		for i := 0; i < 512; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Errorf("Touch(%d): %v", i, err)
			}
		}
	}
	var bytesPerIO float64
	r.run(func(p *sim.Proc) {
		sweep(p)
		sweep(p)
		var before, after runtime.MemStats
		st0 := r.sys.Stats()
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			sweep(p)
		}
		runtime.ReadMemStats(&after)
		st := r.sys.Stats()
		ios := (st.SwapIns - st0.SwapIns) + (st.ReadAheadPages - st0.ReadAheadPages) + (st.SwapOuts - st0.SwapOuts)
		if ios < 2000 {
			t.Errorf("only %d page I/Os in the measured sweeps", ios)
		}
		bytesPerIO = float64(after.TotalAlloc-before.TotalAlloc) / float64(ios)
	})
	idle := idleRecords(r.swap)
	t.Logf("%.0f B/page I/O, %d idle records", bytesPerIO, idle)
	if bytesPerIO >= PageSize/4 {
		t.Errorf("%.0f B allocated per page I/O: page buffers are not being recycled", bytesPerIO)
	}
	if idle == 0 || idle > 128 {
		t.Errorf("%d idle page buffers after the run, want the few the loop had in flight", idle)
	}
}
