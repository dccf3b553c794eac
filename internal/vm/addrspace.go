package vm

import (
	"fmt"

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
//
//hpbd:hotpath
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
			pg.ioDone.Wait(p)
		}
	}
}

// swapinBatch is one swap-in's watcher record: the reads the fault
// submitted, the faulting page's first, finalized in that order — not in
// completion order — while the faulter waits only for its own page. The
// watcher never sleeps and charges no time, so it is not a process but a
// cursor over reads driven by callbacks (step). Idle records sit on
// System.freeBatches.
type swapinBatch struct {
	sys    *System
	reads  []*pageIO
	cursor int             // reads[:cursor] are finalized
	flows  map[uint64]bool // trace flows begun (see beginFlow)
	stepFn func()          // step, bound once
	next   *swapinBatch    // free-list link
}

//hpbd:hotpath
func (s *System) getBatch() *swapinBatch {
	b := s.freeBatches
	if b == nil {
		//hpbd:allow hotalloc -- free-list miss: allocates until the list has grown to the peak swap-ins in flight
		b = &swapinBatch{sys: s}
		//hpbd:allow hotalloc -- the method value is bound once per record
		b.stepFn = b.step
		return b
	}
	s.freeBatches, b.next = b.next, nil
	return b
}

// retire puts a record with no reads left back on the free list.
//
//hpbd:hotpath
func (b *swapinBatch) retire() {
	b.reads, b.cursor, b.flows = b.reads[:0], 0, nil
	b.next, b.sys.freeBatches = b.sys.freeBatches, b
}

// read submits the page-in of bp, a page claimed with a frame. A refused
// submission gives the claim and the frame back.
func (b *swapinBatch) read(bp *Page, now sim.Time) error {
	r, err := bp.dev.submitPageIO(false, bp, now)
	if err != nil {
		unclaim(bp)
		b.sys.releaseFrame()
		return err
	}
	b.flows = b.sys.beginFlow(b.flows, r.RequestID())
	b.reads = append(b.reads, r)
	return nil
}

// step advances the watcher: it finalizes the page at the cursor while
// that page's read is done, and otherwise arms itself on exactly that
// read's completion and returns. It runs first in the slot a watcher
// process would have started in, and again where the completion would
// have woken that process. The last page retires the record.
//
//hpbd:hotpath
func (b *swapinBatch) step() {
	s := b.sys
	for b.cursor < len(b.reads) {
		r := b.reads[b.cursor]
		if r.OnDone(b.stepFn) {
			return
		}
		b.cursor++
		bp := r.pg
		if r.Err() != nil {
			bp.state = PageSwappedOut
			s.releaseFrame()
		} else {
			// The faulting page is reads[0], so its latency is exact;
			// readahead pages may be observed slightly late when their
			// I/O overtakes an earlier one in the batch.
			now := s.env.Now()
			s.hSwapIn.Observe(now.Sub(r.start))
			if s.tracer != nil {
				s.tracer.Complete("vm", "swap-in", r.start, now,
					//hpbd:allow hotalloc -- the span's argument map is built only with a tracer attached
					map[string]any{"slot": bp.slot, "readahead": bp.readahead, "req": r.RequestID()})
			}
			bp.state = PageResident
			bp.dirty = false
			bp.referenced = false
			// Keep the slot binding: a clean swap-cache page can be
			// reclaimed later without rewriting.
			s.lruAdd(bp)
		}
		bp.ioDone.Trigger()
		r.recycle()
	}
	b.retire()
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
	pg.ioDone.Reset()
	pg.readahead = false
	if err := s.allocFrame(p); err != nil {
		unclaim(pg)
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

	// Submit pg's read, then claim and submit each window page there is
	// spare memory for; a watcher finalizes them as they complete. A
	// refused submission (should not happen: slot addresses are in range)
	// ends the batch there and fails the fault, with what was submitted
	// still watched.
	now := s.env.Now()
	b := s.getBatch()
	err := b.read(pg, now)
	for slot := start; slot < end && err == nil; slot++ {
		owner := dev.owner[slot]
		if owner == nil || owner == pg || owner.state != PageSwappedOut {
			continue
		}
		if !s.tryAllocFrame() {
			continue // no spare memory: skip speculative read
		}
		owner.state = PageReading
		owner.ioDone.Reset()
		owner.readahead = true
		s.stats.ReadAheadPages++
		err = b.read(owner, now)
	}
	if len(b.reads) == 0 {
		b.retire()
		return err
	}
	dev.Queue.Unplug()
	s.env.After(0, b.stepFn)
	if err != nil {
		return err
	}

	pg.ioDone.Wait(p)
	if pg.state != PageResident {
		return fmt.Errorf("vm: swap-in failed for %s page %d", as.name, pg.idx)
	}
	return nil
}

// unclaim hands a page claimed for a read that will not happen back to
// its slot and wakes whoever waited on the claim.
func unclaim(pg *Page) {
	pg.state = PageSwappedOut
	pg.ioDone.Trigger()
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
