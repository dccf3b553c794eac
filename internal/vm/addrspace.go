package vm

import (
	"fmt"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// AddressSpace is one process's paged anonymous memory region.
type AddressSpace struct {
	sys   *System
	name  string
	pages []Page
}

// NewAddressSpace creates a region of n pages (all initially not present).
func (s *System) NewAddressSpace(name string, n int) *AddressSpace {
	as := &AddressSpace{sys: s, name: name, pages: make([]Page, n)}
	for i := range as.pages {
		as.pages[i].as = as
		as.pages[i].idx = i
	}
	return as
}

// Name returns the address space's diagnostic name.
func (as *AddressSpace) Name() string { return as.name }

// NumPages returns the region size in pages.
func (as *AddressSpace) NumPages() int { return len(as.pages) }

// Page returns the bookkeeping record for page idx.
func (as *AddressSpace) Page(idx int) *Page { return &as.pages[idx] }

// Resident reports whether page idx is mapped; it is the workload fast
// path and charges no simulated time.
func (as *AddressSpace) Resident(idx int) bool {
	return as.pages[idx].state == PageResident
}

// MarkAccess updates reference/dirty state of a resident page without
// faulting; callers must have checked Resident. It is free of simulated
// cost (the hardware sets these bits).
func (as *AddressSpace) MarkAccess(idx int, write bool) {
	pg := &as.pages[idx]
	pg.referenced = true
	if pg.readahead {
		pg.readahead = false
		as.sys.stats.ReadAheadUseful++
	}
	if write && !pg.dirty {
		pg.dirty = true
		// Writing to a clean swap-cache page detaches it from its slot
		// (the slot contents are now stale).
		if pg.dev != nil {
			pg.dev.freeSlot(pg.slot)
			pg.dev = nil
		}
	}
}

// Touch accesses page idx, faulting it in if needed. It charges the fault
// cost and blocks on any required I/O. write marks the page dirty.
func (as *AddressSpace) Touch(p *sim.Proc, idx int, write bool) error {
	if idx < 0 || idx >= len(as.pages) {
		return fmt.Errorf("vm: page %d out of range (%d pages)", idx, len(as.pages))
	}
	pg := &as.pages[idx]
	if pg.state == PageResident {
		as.MarkAccess(idx, write)
		return nil
	}
	s := as.sys
	s.stats.Faults++
	p.Sleep(s.cfg.Host.PageFaultCPU)

	for {
		switch pg.state {
		case PageResident:
			if pg.readahead {
				pg.readahead = false
				s.stats.ReadAheadUseful++
			}
			as.MarkAccess(idx, write)
			return nil

		case PageNotPresent:
			if err := s.allocFrame(p); err != nil {
				return err
			}
			pg.state = PageResident
			pg.dirty = write
			// Fresh pages enter the LRU unreferenced: only re-accesses
			// while resident mark them young. Single-touch streaming
			// pages thus evict on the first scan (as 2.4's page-table
			// scan does after clearing the young bit).
			pg.referenced = false
			s.lruAdd(pg)
			s.stats.DemandZero++
			return nil

		case PageSwappedOut:
			if err := as.swapIn(p, pg); err != nil {
				return err
			}
			// Loop: page is now Resident (or the read failed and state
			// reverted).

		case PageReading, PageWriting:
			// Wait for the in-flight transition, then re-inspect.
			ev := pg.ioDone
			if ev == nil {
				// Completion raced ahead of us; re-inspect immediately.
				continue
			}
			ev.Wait(p)
		}
	}
}

// swapIn reads pg (and a readahead window around its slot) back into
// memory, blocking until pg's own read completes.
func (as *AddressSpace) swapIn(p *sim.Proc, pg *Page) error {
	s := as.sys
	dev := pg.dev
	s.stats.SwapIns++

	// Claim the faulting page first so concurrent faulters wait on its
	// ioDone instead of issuing a duplicate read; then get its frame
	// (which may block under memory pressure).
	pg.state = PageReading
	pg.ioDone = sim.NewEvent(s.env)
	pg.readahead = false
	if err := s.allocFrame(p); err != nil {
		pg.state = PageSwappedOut
		ev := pg.ioDone
		pg.ioDone = nil
		ev.Trigger()
		return err
	}

	// Readahead window: the aligned group of ReadAheadPages slots
	// containing pg's slot (Linux swapin_readahead).
	ra := s.cfg.ReadAheadPages
	if ra < 1 {
		ra = 1
	}
	start := pg.slot - pg.slot%ra
	end := start + ra
	if end > dev.Slots() {
		end = dev.Slots()
	}

	batch := []*Page{pg}
	for slot := start; slot < end; slot++ {
		owner := dev.owner[slot]
		if owner == nil || owner == pg || owner.state != PageSwappedOut {
			continue
		}
		if !s.tryAllocFrame() {
			continue // no spare memory: skip speculative read
		}
		owner.state = PageReading
		owner.ioDone = sim.NewEvent(s.env)
		owner.readahead = true
		s.stats.ReadAheadPages++
		batch = append(batch, owner)
	}

	// Submit the reads and let a watcher finalize each page as its I/O
	// completes.
	submitAt := s.env.Now()
	ios := make([]*blockdev.IO, 0, len(batch))
	flowsBegun := map[uint64]bool{} // membership only, never iterated
	for _, bp := range batch {
		io, err := dev.submitPageIO(false, bp.slot)
		if err == nil && s.tracer != nil {
			// One flow per merged block request, beginning at the vm layer.
			if id := io.RequestID(); id != 0 && !flowsBegun[id] {
				flowsBegun[id] = true
				s.tracer.FlowBegin("vm", "req", id)
			}
		}
		if err != nil {
			// Should not happen (slot addresses are in range); surface
			// loudly in tests.
			bp.state = PageSwappedOut
			bp.ioDone.Trigger()
			s.releaseFrame()
			return err
		}
		ios = append(ios, io)
	}
	dev.Queue.Unplug()

	myDone := pg.ioDone
	s.env.Go("swapin-watch", func(wp *sim.Proc) {
		for i, io := range ios {
			bp := batch[i]
			err := dev.waitPageIO(wp, io)
			if err != nil {
				bp.state = PageSwappedOut
				s.releaseFrame()
			} else {
				// The faulting page is batch[0], so its latency is exact;
				// readahead pages may be observed slightly late when their
				// I/O overtakes an earlier one in the batch.
				s.hSwapIn.Observe(wp.Now().Sub(submitAt))
				if s.tracer != nil {
					s.tracer.Complete("vm", "swap-in", submitAt, wp.Now(),
						map[string]any{"slot": bp.slot, "readahead": bp.readahead, "req": io.RequestID()})
				}
				bp.state = PageResident
				bp.dirty = false
				bp.referenced = false
				// Keep the slot binding: a clean swap-cache page can be
				// reclaimed later without rewriting.
				s.lruAdd(bp)
			}
			bp.ioDone.Trigger()
			bp.ioDone = nil
		}
	})

	myDone.Wait(p)
	if pg.state != PageResident {
		return fmt.Errorf("vm: swap-in failed for %s page %d", as.name, pg.idx)
	}
	return nil
}

// Release tears the address space down: frames return to the free pool
// and swap slots are freed. In-flight transitions are left to complete on
// their own (their frames are reclaimed by the watcher paths).
func (as *AddressSpace) Release() {
	s := as.sys
	for i := range as.pages {
		pg := &as.pages[i]
		switch pg.state {
		case PageResident:
			s.lruRemove(pg)
			s.releaseFrame()
			if pg.dev != nil {
				pg.dev.freeSlot(pg.slot)
				pg.dev = nil
			}
			pg.state = PageNotPresent
		case PageSwappedOut:
			pg.dev.freeSlot(pg.slot)
			pg.dev = nil
			pg.state = PageNotPresent
		}
	}
}

// ResidentPages counts currently mapped pages.
func (as *AddressSpace) ResidentPages() int {
	n := 0
	for i := range as.pages {
		if as.pages[i].state == PageResident {
			n++
		}
	}
	return n
}
